"""Continuous feature-map lookup: 3x3 unfolding, area-weighted local
ensemble interpolation, and a single-layer implicit decoder.

A query inside a footprint lands inside a cell of the patch-center hull;
the four surrounding patch latents each produce a decoder prediction,
blended with bilinear area weights so the result is continuous across
cell boundaries.

The decoder is affine, f_theta(z) = z W + b, so the ensemble has a closed
form: sum_k w_k f_theta(z_k) = (sum_k w_k z_k) W + b, exact because the
bilinear weights sum to 1. Unlike LIIF's decoder, it takes no
query-to-corner offset: the bilinear weights also reproduce linear
functions, so the blended offsets sum_k w_k delta_k are 0 (clamped queries
are moved onto the hull first), and an affine offset term would add
nothing to the ensemble.

Each lookup takes the order that fits its traffic. `inr_lookup`, used in
training and embedding, reads one query per map, so it blends the four
corner neighborhoods first and decodes once per query, as one autodiff
node over (feature map, W, b): it gathers the 3x3 neighborhoods of only
the four corner cells each query reads, and its closed-form backward
scatters into those cells alone. `unfold3x3` + `inr_query_batch` serve a
heatmap, where many queries read one map: they decode every cell of the
unfolded map once and blend each query's four decoded corners, so the
decoder runs per cell, not per query. They are forward-only, and agree
with `inr_lookup` to rounding. `f_theta` stays as the reference decoder.
Both lookups blend in `_blend`, and take the patch-cell centres and the
hull from `gair.geo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geo import OutOfFootprintError, cell_centers, interpolation_hull
from .tensor import Tensor, l2_normalize_rows, matmul

__all__ = [
    "FThetaParams",
    "EnsembleGeometry",
    "unfold3x3",
    "ensemble_weights",
    "f_theta",
    "inr_query_batch",
    "inr_lookup",
    "bilinear_oracle",
]

# Raster order of the 3x3 neighborhood: NW, N, NE, W, center, E, SW, S, SE.
_NEIGHBOR_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]


@dataclass
class FThetaParams:
    """Single affine layer over the unfolded latent: W [9D, D], b [D]."""

    weight: Tensor
    bias: Tensor

    @staticmethod
    def init(d: int, rng: np.random.Generator, dtype=np.float32) -> "FThetaParams":
        # The draw has two rows more than the weight keeps, at the matching
        # scale: the rows the decoder's offset input once had. So each seed
        # keeps its initial weights and the generator's later draws.
        fan_in = 9 * d + 2
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, d))[: 9 * d]
        return FThetaParams(
            weight=Tensor(w.astype(dtype), requires_grad=True),
            bias=Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
        )

    @staticmethod
    def passthrough(d: int) -> "FThetaParams":
        """Extracts the center block of the unfolded latent, in float64."""
        w = np.zeros((9 * d, d))
        w[4 * d : 5 * d, :] = np.eye(d)
        return FThetaParams(weight=Tensor(w), bias=Tensor(np.zeros(d)))

    def named(self) -> dict:
        return {"ftheta.weight": self.weight, "ftheta.bias": self.bias}


def unfold3x3(fm: Tensor) -> Tensor:
    """Concatenate each cell's 3x3 neighborhood along channels.

    fm has shape (..., H, W, D); output (..., H, W, 9D). Out-of-grid
    neighbors contribute zero blocks. Forward-only: the map is padded once
    and the nine shifted windows are concatenated; `inr_lookup` is the
    differentiable lookup.
    """
    H, W, D = fm.shape[-3:]
    lead = [(0, 0)] * (fm.ndim - 3)
    padded = np.pad(fm.values, lead + [(1, 1), (1, 1), (0, 0)])
    windows = [(slice(1 + di, 1 + di + H), slice(1 + dj, 1 + dj + W)) for di, dj in _NEIGHBOR_OFFSETS]
    out_vals = np.concatenate([padded[..., r, c, :] for r, c in windows], axis=-1)
    return Tensor._make(out_vals, (fm,), None)


@dataclass
class EnsembleGeometry:
    """Corner indices and area weights for one query."""

    rows: np.ndarray  # (n, 4) int, corner row indices (N then S)
    cols: np.ndarray  # (n, 4) int
    weights: np.ndarray  # (n, 4), nonnegative, rows sum to 1
    clamped: np.ndarray  # (n,) bool, query was outside the patch-center hull


def ensemble_weights(queries: np.ndarray, P: int) -> EnsembleGeometry:
    """Corner geometry for queries (n, 2) of local (u, v) coordinates.

    Corner k is weighted by the area of the rectangle between the query and
    the diagonally opposite corner (bilinear convention), so a query that
    coincides with a corner takes that corner's value exactly. Queries in
    the outer half-patch margin are clamped to the hull with a flag; queries
    outside the footprint are rejected.
    """
    if P < 2:
        raise ValueError("local ensemble needs a grid of at least 2x2 patches")
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if not np.all(np.abs(q) <= 1.0 + 1e-12):  # a NaN fails this test too
        bad = q[~np.all(np.abs(q) <= 1.0 + 1e-12, axis=1)][0]
        raise OutOfFootprintError(f"query (u={bad[0]}, v={bad[1]}) outside footprint")

    hull = interpolation_hull(P)
    clamped = np.any(np.abs(q) > hull, axis=1)
    qc = np.clip(q, -hull, hull)

    cell = 2.0 / P
    # Column pair west of / east of the query; cols increase eastward.
    b0 = np.clip(np.floor((qc[:, 0] + 1.0) * P / 2.0 - 0.5).astype(int), 0, P - 2)
    # Row pair north of / south of the query; rows increase southward.
    a0 = np.clip(np.floor((1.0 - qc[:, 1]) * P / 2.0 - 0.5).astype(int), 0, P - 2)
    # Corner order: (N,W), (N,E), (S,W), (S,E).
    rows = np.stack([a0, a0, a0 + 1, a0 + 1], axis=1)
    cols = np.stack([b0, b0 + 1, b0, b0 + 1], axis=1)
    west_u, north_v = cell_centers(P, a0, b0)
    tu = (qc[:, 0] - west_u) / cell  # 0 at west corner, 1 at east
    tv = (north_v - qc[:, 1]) / cell  # 0 at north corner, 1 at south
    weights = np.stack([(1 - tu) * (1 - tv), tu * (1 - tv), (1 - tu) * tv, tu * tv], axis=1)
    return EnsembleGeometry(rows=rows, cols=cols, weights=weights, clamped=clamped)


def f_theta(params: FThetaParams, z_k: Tensor) -> Tensor:
    """Implicit decoder: affine layer over the unfolded latent."""
    return matmul(z_k, params.weight) + params.bias


def _blend(corners: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each query's four corner rows (N, 4, C) blended by their area weights (N, 4)."""
    return (corners * weights[:, :, None].astype(corners.dtype)).sum(axis=1)


def inr_query_batch(params: FThetaParams, unfolded: Tensor, queries: np.ndarray, normalize: bool = True) -> Tensor:
    """Localized embeddings for n queries, from an unfolded map.

    unfolded: (N, P, P, 9D), either one map that every query reads (N = 1)
    or one map per query (N = n); any other N raises ValueError. queries:
    (n, 2) local coordinates. Returns (n, D), L2-normalized unless
    normalize=False. Every cell is decoded once, then each query blends its
    four decoded corners (see the module docstring). Forward-only: it agrees
    with `inr_lookup` on the map `unfolded` was unfolded from, to rounding.
    """
    geom = ensemble_weights(queries, unfolded.shape[1])
    decoded = unfolded.values @ params.weight.values + params.bias.values  # (N, P, P, D)
    maps = np.broadcast_to(np.arange(unfolded.shape[0]), len(geom.rows))[:, None]
    out_vals = _blend(decoded[maps, geom.rows, geom.cols], geom.weights)
    out = Tensor._make(out_vals, (unfolded, params.weight, params.bias), None)
    return l2_normalize_rows(out) if normalize else out


def inr_lookup(params: FThetaParams, fm: Tensor, queries: np.ndarray, normalize: bool = True) -> Tensor:
    """Localized embeddings for one query per sample, read from the feature map.

    fm: (N, P, P, D); queries: (N, 2) local coordinates. Returns (N, D),
    L2-normalized unless normalize=False; differentiable back to the
    feature map and the decoder parameters. The ensemble before the
    normalization is one node in closed form (see the module docstring):
    each corner's 3x3 neighborhood is gathered from the padded map, offset
    by offset in `unfold3x3`'s order, and the four are blended before the
    one decode, since each map is read by one query.
    """
    n, P, d = fm.shape[0], fm.shape[1], fm.shape[-1]
    geom = ensemble_weights(queries, P)
    padded = np.pad(fm.values, [(0, 0), (1, 1), (1, 1), (0, 0)])
    cells = [(np.arange(n)[:, None], geom.rows + 1 + di, geom.cols + 1 + dj) for di, dj in _NEIGHBOR_OFFSETS]
    blended = _blend(np.concatenate([padded[c] for c in cells], axis=-1), geom.weights)  # (N, 9D)
    w = params.weight.values
    out_vals = blended @ w + params.bias.values

    def bwd(g):
        params.bias._accumulate(g.sum(axis=0))
        params.weight._accumulate(blended.T @ g)
        # Within one offset a sample's four corners are distinct cells: += is exact.
        h = (g @ w.T)[:, None, :] * geom.weights[:, :, None].astype(fm.dtype)
        full = np.zeros((n, P + 2, P + 2, d), dtype=fm.dtype)
        for o, c in enumerate(cells):
            full[c] += h[..., o * d : (o + 1) * d]
        fm._accumulate(full[:, 1:-1, 1:-1, :])

    out = Tensor._make(out_vals, (fm, params.weight, params.bias), bwd)
    return l2_normalize_rows(out) if normalize else out


def bilinear_oracle(grid: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Plain bilinear interpolation over patch centers, for cross-checking.

    grid: (P, P, C) with row 0 northernmost; queries: (n, 2) of local (u, v).
    Brackets each query between patch centers by linear search and composes
    two 1-d lerps; shares no code with the graph path.
    """
    P = grid.shape[0]
    centers_u = [-1.0 + (2 * b + 1) / P for b in range(P)]
    centers_v = [1.0 - (2 * a + 1) / P for a in range(P)]  # descending
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    out = np.zeros((len(q), grid.shape[2]))
    for i, (u, v) in enumerate(q):
        u = min(max(u, centers_u[0]), centers_u[-1])
        v = min(max(v, centers_v[-1]), centers_v[0])
        bw = 0
        while bw < P - 2 and centers_u[bw + 1] <= u:
            bw += 1
        an = 0
        while an < P - 2 and centers_v[an + 1] >= v:
            an += 1
        tu = (u - centers_u[bw]) / (centers_u[bw + 1] - centers_u[bw])
        tv = (centers_v[an] - v) / (centers_v[an] - centers_v[an + 1])
        north = (1 - tu) * grid[an, bw] + tu * grid[an, bw + 1]
        south = (1 - tu) * grid[an + 1, bw] + tu * grid[an + 1, bw + 1]
        out[i] = (1 - tv) * north + tv * south
    return out
