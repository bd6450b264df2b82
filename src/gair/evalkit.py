"""Transfer and analysis tools: cross-modal retrieval, linear and
non-linear probes over frozen embeddings, location-prior fusion,
concatenated-embedding regression, and similarity heatmaps."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .datagen import _STREAM_PROBE, _stream
from .geo import GeoFootprint, GeoPoint, footprint_center, interpolation_hull, local_uv
from .inr import inr_query_batch
from .tensor import Tensor, backward, cross_entropy, enable_grad, matmul
from .training import AdamW, TrainConfig

__all__ = [
    "retrieval_metrics",
    "ProbeHead",
    "fit_probe",
    "geo_aware_predict",
    "geo_regression",
    "HeatmapGrid",
    "heatmap_loc",
    "heatmap_inr",
    "write_heatmap_csv",
    "write_heatmap_pgm",
]


def retrieval_metrics(queries: np.ndarray, candidates: np.ndarray, truth: np.ndarray, ks=(1, 5, 10)) -> dict:
    """Rank candidates per query by cosine similarity (descending, ties to
    the lower index) and report recall@k and the median true rank.

    `truth` holds one integer candidate index in [0, len(candidates)) per
    query, else ValueError: a negative index would wrap to the end and
    break the tie rule."""
    if candidates.shape[0] == 0:
        raise ValueError("empty candidate set")
    truth = np.asarray(truth)
    if not np.issubdtype(truth.dtype, np.integer) or truth.shape != (len(queries),):
        raise ValueError(f"truth must be {len(queries)} integer indices, not {truth.dtype} of shape {truth.shape}")
    if truth.size and not (0 <= truth.min() and truth.max() < len(candidates)):
        raise ValueError(f"truth indices must lie in [0, {len(candidates)})")
    sims = queries @ candidates.T
    true_sims = sims[np.arange(len(queries)), truth][:, None]
    # 1 + the candidates ranked above the true one: more similar, or equally
    # similar at a lower index (the order a stable descending sort gives).
    lower = np.arange(sims.shape[1]) < truth[:, None]
    ranks = 1 + np.count_nonzero(sims > true_sims, axis=1) + np.count_nonzero((sims == true_sims) & lower, axis=1)
    out = {f"recall@{k}": float(np.mean(ranks <= k)) for k in ks}
    out["median_rank"] = float(np.median(ranks))
    return out


@dataclass
class ProbeHead:
    kind: str  # "linear" or "nonlinear"
    params: dict  # name -> Tensor

    def logits(self, x: Tensor) -> Tensor:
        if self.kind == "linear":
            return matmul(x, self.params["w"]) + self.params["b"]
        h = (matmul(x, self.params["w1"]) + self.params["b1"]).gelu()
        return matmul(h, self.params["w2"]) + self.params["b2"]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(Tensor(x)).values

    @staticmethod
    def init(kind: str, d_in: int, d_out: int, rng: np.random.Generator, hidden: int = 64) -> "ProbeHead":
        def t(arr):
            return Tensor(arr.astype(np.float64), requires_grad=True)

        if kind == "linear":
            params = {"w": t(rng.normal(0, 1 / math.sqrt(d_in), (d_in, d_out))), "b": t(np.zeros(d_out))}
        elif kind == "nonlinear":
            params = {
                "w1": t(rng.normal(0, 1 / math.sqrt(d_in), (d_in, hidden))),
                "b1": t(np.zeros(hidden)),
                "w2": t(rng.normal(0, 1 / math.sqrt(hidden), (hidden, d_out))),
                "b2": t(np.zeros(d_out)),
            }
        else:
            raise ValueError(f"unknown probe kind {kind!r}")
        return ProbeHead(kind=kind, params=params)


def fit_probe(embeddings: np.ndarray, labels: np.ndarray, kind: str = "linear", task: str = "classification",
              epochs: int = 200, lr: float = 0.05, batch_size: int = 128, seed: int = 0,
              val_fraction: float = 0.25, hidden: int = 64):
    """Train a probe head on frozen embeddings; returns (head, held-out metric).

    Classification reports accuracy, regression reports RMSE, both on a
    deterministic trailing split. An unknown `task`, or classification
    labels other than non-negative integers, raise ValueError.
    """
    if len(embeddings) != len(labels):
        raise ValueError("embedding/label count mismatch")
    if task not in ("classification", "regression"):
        raise ValueError(f"unknown probe task {task!r}")
    if task == "classification" and not (np.issubdtype(labels.dtype, np.integer) and labels.min() >= 0):
        raise ValueError("classification labels must be non-negative integers")
    rng = _stream(seed, _STREAM_PROBE)
    n = len(embeddings)
    n_val = max(1, int(n * val_fraction))
    x_tr, x_va = embeddings[: n - n_val], embeddings[n - n_val :]
    y_tr, y_va = labels[: n - n_val], labels[n - n_val :]
    d_out = int(np.max(labels)) + 1 if task == "classification" else 1
    head = ProbeHead.init(kind, embeddings.shape[1], d_out, rng, hidden=hidden)

    # Plain Adam (AdamW without decay) over the probe parameters; the
    # backbone is untouched.
    optimizer = AdamW(head.params, TrainConfig(weight_decay=0.0))
    for epoch in range(epochs):
        perm = rng.permutation(len(x_tr))
        for s in range(0, len(x_tr), batch_size):
            idx = perm[s : s + batch_size]
            xb = Tensor(x_tr[idx].astype(np.float64))
            with enable_grad():
                logits = head.logits(xb)
                if task == "classification":
                    loss = cross_entropy(logits, y_tr[idx])
                else:
                    diff = logits.reshape(len(idx)) - Tensor(y_tr[idx].astype(np.float64))
                    loss = (diff * diff).mean()
            optimizer.zero_grad()
            backward(loss)
            optimizer.step(lr)

    pred = head.predict(x_va)
    if task == "classification":
        metric = float(np.mean(np.argmax(pred, axis=1) == y_va))
    else:
        metric = float(np.sqrt(np.mean((pred.reshape(-1) - y_va) ** 2)))
    return head, metric


def geo_aware_predict(log_p_image: np.ndarray, log_p_loc: np.ndarray) -> dict:
    """Fuse an image classifier with a location prior by adding log scores."""
    log_p_image = np.asarray(log_p_image, dtype=np.float64)
    log_p_loc = np.asarray(log_p_loc, dtype=np.float64)
    if log_p_image.shape != log_p_loc.shape:
        raise ValueError(f"score length mismatch: {log_p_image.shape} vs {log_p_loc.shape}")
    scores = log_p_image + log_p_loc
    shifted = scores - scores.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    return {"scores": scores, "probs": probs, "argmax": int(np.argmax(scores))}


def geo_regression(image_emb: np.ndarray, loc_emb: np.ndarray, head: ProbeHead) -> float:
    """Affine prediction over the concatenated image and location embeddings."""
    x = np.concatenate([np.asarray(image_emb), np.asarray(loc_emb)])
    expected = head.params["w"].shape[0]
    if x.shape[0] != expected:
        raise ValueError(f"head expects input width {expected}, got {x.shape[0]}")
    return float(head.predict(x[None, :])[0, 0])


@dataclass
class HeatmapGrid:
    origin: GeoPoint  # NW corner cell center
    resolution: float  # radians per cell, positive
    values: np.ndarray  # (rows, cols), row 0 northernmost

    def cell_center(self, row: int, col: int) -> GeoPoint:
        return GeoPoint(self.origin.lon + col * self.resolution, self.origin.lat - row * self.resolution)

    def argmax_cell(self) -> tuple:
        idx = int(np.argmax(self.values))
        return divmod(idx, self.values.shape[1])


def heatmap_loc(sv_emb: np.ndarray, loc_encoder, center: GeoPoint, resolution: float, rows: int, cols: int) -> HeatmapGrid:
    """Cosine similarity between one SV embedding and location embeddings on
    a mesh centered at `center`."""
    if not 0 < resolution < math.inf or rows < 1 or cols < 1:
        raise ValueError(f"resolution must be positive and finite and rows, cols at least 1, "
                         f"not {resolution!r}, {rows!r}, {cols!r}")
    origin = GeoPoint(center.lon - (cols - 1) / 2 * resolution, center.lat + (rows - 1) / 2 * resolution)
    lons = origin.lon + np.arange(cols) * resolution
    lats = origin.lat - np.arange(rows) * resolution
    lon_g, lat_g = np.meshgrid(lons, lats)
    pts = np.stack([lon_g.reshape(-1), lat_g.reshape(-1)], axis=1)
    emb = loc_encoder.encode(pts).values
    sims = emb @ np.asarray(sv_emb)
    return HeatmapGrid(origin=origin, resolution=resolution, values=sims.reshape(rows, cols))


def heatmap_inr(sv_emb: np.ndarray, ftheta, unfolded, footprint: GeoFootprint, resolution: float) -> HeatmapGrid:
    """Cosine similarity between one SV embedding and localized RS embeddings
    on a mesh over the footprint's interpolation hull.

    `unfolded` is one unfolded feature map, (1, P, P, 9D), from `unfold3x3`.
    Every mesh point reads it through one `inr_query_batch` call, which
    decodes each of its P^2 cells once and then blends per point, so the
    decode work does not grow with the mesh.
    """
    if not 0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, not {resolution!r}")
    hull = interpolation_hull(unfolded.shape[1])
    lon_c, lat_c = footprint_center(*footprint.bounds)
    cols = max(1, int(hull * (footprint.lon_max - footprint.lon_min) / resolution)) + 1
    rows = max(1, int(hull * (footprint.lat_max - footprint.lat_min) / resolution)) + 1
    lons = lon_c + (np.arange(cols) - (cols - 1) / 2) * resolution
    lats = lat_c - (np.arange(rows) - (rows - 1) / 2) * resolution
    u_g, v_g = np.meshgrid(*local_uv(lons, lats, *footprint.bounds))
    queries = np.stack([u_g.reshape(-1), v_g.reshape(-1)], axis=1)
    emb = inr_query_batch(ftheta, unfolded, queries).values
    sims = emb @ np.asarray(sv_emb)
    return HeatmapGrid(origin=GeoPoint(lons[0], lats[0]), resolution=resolution, values=sims.reshape(rows, cols))


def write_heatmap_csv(grid: HeatmapGrid, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in grid.values:
            writer.writerow([f"{v:.9g}" for v in row])


def write_heatmap_pgm(grid: HeatmapGrid, path):
    """8-bit binary PGM; values mapped affinely from [-1, 1] to [0, 255]."""
    rows, cols = grid.values.shape
    pixels = np.clip(np.round((grid.values + 1.0) * 127.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode())
        fh.write(pixels.tobytes())
