"""The three factorized encoders: a patch-transformer over remote-sensing
chips that emits a geo-referenced feature grid, the same backbone with
mean pooling for street-view images, and a Fourier-feature location MLP.

All learnable state lives in flat name->Tensor dictionaries so the
optimizer and checkpointing can treat every model uniformly.

Each encoder's forward pass goes through `_forward_blocks`, which alone
chooses how it runs. Inside `enable_grad()` it records one graph over the
whole batch. Outside it, when BLAS runs one thread there
(`parallel.blas_pinned()`), the image backbone runs on blocks of images and
the location encoder on blocks of rows, one thread per usable core; the
values are those of the recorded pass, bit for bit. Where BLAS keeps its
threads, the whole batch runs in one pass, as BLAS's threads would compete
with the blocks' for the cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geo import equal_earth_rescaled_batch
from .parallel import blas_pinned, for_each_block, row_blocks, usable_cores
from .tensor import Tensor, attention, grad_enabled, l2_normalize_rows, layer_norm, matmul

__all__ = [
    "EncoderConfig",
    "LocEncoderConfig",
    "ImageEncoder",
    "LocationEncoder",
    "rff_features",
]


@dataclass
class EncoderConfig:
    channels: int = 3
    image_size: int = 32
    patch_size: int = 4
    dim: int = 64
    depth: int = 2
    heads: int = 4
    ff_width: int = 128

    def __post_init__(self):
        for name in ("channels", "image_size", "patch_size", "dim", "depth", "heads", "ff_width"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be positive, not {getattr(self, name)!r}")
        if self.image_size % self.patch_size != 0:
            raise ValueError(f"image size {self.image_size} not divisible by patch size {self.patch_size}")
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def tokens(self) -> int:
        return self.grid * self.grid


@dataclass
class LocEncoderConfig:
    freqs: int = 256  # rows of the frozen Fourier matrix
    sigma: float = 1000.0  # largest frequency scale, cycles across the globe
    sigma_min: float = 0.0  # smallest scale; <= 0 means single-scale at sigma
    hidden: int = 256
    dim: int = 64

    def __post_init__(self):
        for name in ("freqs", "hidden", "dim"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be positive, not {getattr(self, name)!r}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, not {self.sigma!r}")


class ImageEncoder:
    """Patch embedding + learned 2-D positional embedding + pre-norm
    attention blocks + per-token linear projection to the shared dimension."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator, prefix: str, dtype=np.float32):
        self.config = config
        self.prefix = prefix
        self.dtype = dtype
        c = config
        p = {}

        def param(name, arr):
            p[f"{prefix}.{name}"] = Tensor(arr.astype(dtype), requires_grad=True)

        patch_dim = c.channels * c.patch_size * c.patch_size
        param("patch.weight", rng.normal(0, 1 / math.sqrt(patch_dim), (patch_dim, c.dim)))
        param("patch.bias", np.zeros(c.dim))
        param("pos", rng.normal(0, 0.02, (c.tokens, c.dim)))
        for i in range(c.depth):
            for nm in ("q", "k", "v", "o"):
                param(f"block{i}.attn.{nm}", rng.normal(0, 1 / math.sqrt(c.dim), (c.dim, c.dim)))
            param(f"block{i}.ln1.gamma", np.ones(c.dim))
            param(f"block{i}.ln1.beta", np.zeros(c.dim))
            param(f"block{i}.ff.w1", rng.normal(0, 1 / math.sqrt(c.dim), (c.dim, c.ff_width)))
            param(f"block{i}.ff.b1", np.zeros(c.ff_width))
            param(f"block{i}.ff.w2", rng.normal(0, 1 / math.sqrt(c.ff_width), (c.ff_width, c.dim)))
            param(f"block{i}.ff.b2", np.zeros(c.dim))
            param(f"block{i}.ln2.gamma", np.ones(c.dim))
            param(f"block{i}.ln2.beta", np.zeros(c.dim))
        param("final_ln.gamma", np.ones(c.dim))
        param("final_ln.beta", np.zeros(c.dim))
        param("proj.weight", rng.normal(0, 1 / math.sqrt(c.dim), (c.dim, c.dim)))
        param("proj.bias", np.zeros(c.dim))
        self.params = p

    def patchify(self, images: np.ndarray) -> np.ndarray:
        """(N, C, H, W) -> (N, tokens, C*p*p); token order is raster over the
        patch grid with row 0 the northernmost patch row."""
        c = self.config
        n = images.shape[0]
        if images.shape[1:] != (c.channels, c.image_size, c.image_size):
            raise ValueError(f"expected images of shape (*, {c.channels}, {c.image_size}, {c.image_size}), got {images.shape}")
        g, ps = c.grid, c.patch_size
        x = images.reshape(n, c.channels, g, ps, g, ps)
        x = x.transpose(0, 2, 4, 1, 3, 5).reshape(n, g * g, c.channels * ps * ps)
        return np.ascontiguousarray(x)

    def _p(self, name: str) -> Tensor:
        return self.params[f"{self.prefix}.{name}"]

    def backbone(self, images: np.ndarray) -> Tensor:
        """Token features (N, tokens, dim) after the attention blocks. Each
        block is pre-norm multi-head self-attention, whose head split and
        merge happen inside the one `attention` node, then a GELU MLP, each
        with a residual add.

        `_forward_blocks` runs it; where it fills blocks, each holds
        ceil(N / usable cores) images."""
        return _forward_blocks(self, self._blocks, images, -(-len(images) // usable_cores()), (self.config.tokens, self.config.dim))

    def _blocks(self, images: np.ndarray) -> Tensor:
        c = self.config
        x = matmul(Tensor(self.patchify(images).astype(self.dtype)), self._p("patch.weight")) + self._p("patch.bias")
        x = x + self._p("pos")
        for i in range(c.depth):
            h = layer_norm(x, self._p(f"block{i}.ln1.gamma"), self._p(f"block{i}.ln1.beta"))
            mixed = attention(matmul(h, self._p(f"block{i}.attn.q")), matmul(h, self._p(f"block{i}.attn.k")),
                              matmul(h, self._p(f"block{i}.attn.v")), c.heads)
            x = x + matmul(mixed, self._p(f"block{i}.attn.o"))
            h = layer_norm(x, self._p(f"block{i}.ln2.gamma"), self._p(f"block{i}.ln2.beta"))
            h = (matmul(h, self._p(f"block{i}.ff.w1")) + self._p(f"block{i}.ff.b1")).gelu()
            x = x + matmul(h, self._p(f"block{i}.ff.w2")) + self._p(f"block{i}.ff.b2")
        return layer_norm(x, self._p("final_ln.gamma"), self._p("final_ln.beta"))

    def encode_feature_maps(self, images: np.ndarray) -> Tensor:
        """Geo-referenced latent grids (N, P, P, dim); cells unnormalized."""
        c = self.config
        tokens = self.backbone(images)
        projected = matmul(tokens, self._p("proj.weight")) + self._p("proj.bias")
        return projected.reshape(images.shape[0], c.grid, c.grid, c.dim)

    def encode_pooled(self, images: np.ndarray) -> Tensor:
        """Mean-pooled unit-norm embeddings (N, dim)."""
        tokens = self.backbone(images)
        pooled = tokens.mean(axis=1)
        projected = matmul(pooled, self._p("proj.weight")) + self._p("proj.bias")
        return l2_normalize_rows(projected)


def _forward_blocks(encoder, forward, x: np.ndarray, size: int, row_shape: tuple) -> Tensor:
    """`forward(x)` for `encoder`, where `forward` maps each row of x to one
    output row of shape `row_shape` in the encoder's dtype.

    Inside `enable_grad()` it records the graph, and where BLAS keeps its
    threads (not `parallel.blas_pinned()`) it runs the whole batch in one
    pass. Otherwise it runs on `parallel.row_blocks` of `size` rows of x, on
    one thread per usable core, each block written into its rows of one
    output. Every row of the forward pass depends on its own input row
    alone, and a block takes the same GEMM path as the whole batch, so the
    output equals the whole-batch values bit for bit. It is marked as
    computed from the encoder's parameters, so `enable_grad()` refuses it
    as an input. `forward` calls nothing that `perfbench/spans.py` wraps,
    as its span recorder assumes one thread."""
    if grad_enabled() or not blas_pinned():
        return forward(x)
    out = np.empty((len(x), *row_shape), encoder.dtype)

    def fill(rows):
        out[rows] = forward(x[rows]).values

    for_each_block(fill, row_blocks(len(x), size))
    return Tensor._make(out, tuple(encoder.params.values()), None)


# Rows per block of the forward-only location encoder. 256 rows keep a
# block's float64 phase at 512 KB for 256 frequencies; 1024-row blocks ran
# slower on two threads.
_RFF_BLOCK = 256


def _projected(lonlat) -> np.ndarray:
    """2 pi times the rescaled Equal-Earth coordinates of (n, 2) or (2,)
    finite radians, else ValueError."""
    lonlat = np.asarray(lonlat)
    if not (lonlat.shape == (2,) or (lonlat.ndim == 2 and lonlat.shape[1] == 2)):
        raise ValueError(f"lonlat must be shaped (n, 2) or (2,), not {lonlat.shape}")
    if not np.isfinite(lonlat).all():
        raise ValueError("lonlat holds a non-finite value")
    return 2.0 * math.pi * equal_earth_rescaled_batch(np.atleast_2d(lonlat))


def _fourier(B: np.ndarray, q: np.ndarray, dtype) -> np.ndarray:
    """[cos(q B^T), sin(q B^T)] of projected rows q, from a float64 phase,
    written into one output of `dtype`, which rounds each value once."""
    m = B.shape[0]
    phase = q @ B.T
    out = np.empty((len(q), 2 * m), dtype)
    np.cos(phase, out=out[:, :m])
    np.sin(phase, out=out[:, m:])
    return out


def rff_features(B: np.ndarray, lonlat, dtype=np.float64) -> np.ndarray:
    """Random Fourier Features of projected coordinates (Tancik et al. 2020,
    arXiv 2006.10739).

    B: (m, 2) frozen Gaussian matrix; lonlat: (n, 2) or (2,) finite radians,
    else ValueError. Coordinates are Equal-Earth projected and rescaled to
    [-1, 1]^2, then encoded as [cos(2 pi B q); sin(2 pi B q)] -> (n, 2m) in
    `dtype`. The cos and sin of the float64 phase are written straight into
    the output, so it equals `np.concatenate([cos, sin], 1).astype(dtype)`
    of the float64 formula bit for bit.
    """
    return _fourier(B, _projected(lonlat), dtype)


class LocationEncoder:
    """Frozen Fourier features followed by a trainable 2-layer GELU MLP."""

    def __init__(self, config: LocEncoderConfig, rng: np.random.Generator, prefix: str = "loc", dtype=np.float32):
        self.config = config
        self.prefix = prefix
        self.dtype = dtype
        # Sampled once; never trained, never mutated. Row scales are either
        # a single sigma or log-spaced between sigma_min and sigma, giving the
        # features both coarse and fine spatial wavelengths.
        if 0.0 < config.sigma_min < config.sigma:
            scales = np.geomspace(config.sigma_min, config.sigma, config.freqs)
        else:
            scales = np.full(config.freqs, config.sigma)
        self.B = rng.normal(0.0, 1.0, (config.freqs, 2)) * scales[:, None]
        p = {}

        def param(name, arr):
            p[f"{prefix}.{name}"] = Tensor(arr.astype(dtype), requires_grad=True)

        fan_in = 2 * config.freqs
        param("mlp.w1", rng.normal(0, 1 / math.sqrt(fan_in), (fan_in, config.hidden)))
        param("mlp.b1", np.zeros(config.hidden))
        param("mlp.w2", rng.normal(0, 1 / math.sqrt(config.hidden), (config.hidden, config.dim)))
        param("mlp.b2", np.zeros(config.dim))
        self.params = p

    def _p(self, name: str) -> Tensor:
        return self.params[f"{self.prefix}.{name}"]

    def encode(self, lonlat: np.ndarray) -> Tensor:
        """Unit-norm embeddings (n, dim) for lon/lat pairs in radians.

        `_forward_blocks` runs the whole encoder, features included; where
        it fills blocks, each holds `_RFF_BLOCK` rows."""
        return _forward_blocks(self, self._encode_rows, _projected(lonlat), _RFF_BLOCK, (self.config.dim,))

    def _encode_rows(self, q: np.ndarray) -> Tensor:
        feats = Tensor(_fourier(self.B, q, self.dtype))
        h = (matmul(feats, self._p("mlp.w1")) + self._p("mlp.b1")).gelu()
        return l2_normalize_rows(matmul(h, self._p("mlp.w2")) + self._p("mlp.b2"))
