"""The three factorized encoders: a patch-transformer over remote-sensing
chips that emits a geo-referenced feature grid, the same backbone with
mean pooling for street-view images, and a Fourier-feature location MLP.

All learnable state lives in flat name->Tensor dictionaries so the
optimizer and checkpointing can treat every model uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geo import equal_earth_rescaled_batch
from .tensor import Tensor, attention, l2_normalize_rows, layer_norm, matmul

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
        with a residual add."""
        c = self.config
        patches = Tensor(self.patchify(images).astype(self.dtype))
        x = matmul(patches, self._p("patch.weight")) + self._p("patch.bias")
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


def rff_features(B: np.ndarray, lonlat: np.ndarray) -> np.ndarray:
    """Random Fourier Features of projected coordinates.

    B: (m, 2) frozen Gaussian matrix; lonlat: (n, 2) radians. Coordinates
    are Equal-Earth projected and rescaled to [-1, 1]^2, then encoded as
    [cos(2 pi B q); sin(2 pi B q)] -> (n, 2m).
    """
    q = equal_earth_rescaled_batch(np.atleast_2d(lonlat))
    phase = 2.0 * math.pi * q @ B.T
    return np.concatenate([np.cos(phase), np.sin(phase)], axis=1)


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

    def features(self, lonlat: np.ndarray) -> np.ndarray:
        return rff_features(self.B, lonlat)

    def encode(self, lonlat: np.ndarray) -> Tensor:
        """Unit-norm embeddings (n, dim) for lon/lat pairs in radians."""
        feats = Tensor(self.features(lonlat).astype(self.dtype))
        h = (matmul(feats, self._p("mlp.w1")) + self._p("mlp.b1")).gelu()
        out = matmul(h, self._p("mlp.w2")) + self._p("mlp.b2")
        return l2_normalize_rows(out)
