"""Pretraining engine: per-step pipeline (encode, localized lookup, both
contrastive losses, backward, AdamW with warmup-cosine schedule), memory
bank maintenance, JSON-lines metrics, and versioned binary checkpoints."""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .datagen import _STREAM_AUGMENT_BASE, _STREAM_EPOCH_BASE, _STREAM_MODEL_INIT, TripleBatch, _stream, make_batch
from .encoders import EncoderConfig, ImageEncoder, LocEncoderConfig, LocationEncoder
from .errors import FormatError, _replacing, require_keys
from .inr import FThetaParams, inr_lookup
from .objectives import LossConfig, MemoryBank, combined_loss, incl_loss, secl_loss
from .tensor import ContractError, Tensor, backward, enable_grad

__all__ = ["TrainConfig", "AdamW", "Model", "lr_at", "train_step", "train", "save_checkpoint", "load_checkpoint"]

CKPT_MAGIC = b"GAIRCKPT"
CKPT_VERSION = 3
_MODEL_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 30
    base_lr: float = 1e-3
    warmup_fraction: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.003
    grad_clip: float = 5.0
    schedule: str = "cosine"  # or "constant" after warmup
    seed: int = 7
    eval_every: int = 0  # 0 disables periodic checkpoints
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        for name in ("batch_size", "epochs", "seed", "eval_every"):
            if not isinstance(getattr(self, name), int):
                raise TypeError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if self.schedule not in ("cosine", "constant"):
            raise ValueError(f"schedule must be 'cosine' or 'constant', not {self.schedule!r}")
        if self.batch_size < 2:
            raise ValueError("contrastive training needs batch size >= 2")
        if self.epochs < 0 or self.eval_every < 0:
            raise ValueError(f"epochs and eval_every must be non-negative, not {self.epochs} and {self.eval_every}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), not {getattr(self, name)!r}")
        for name in ("base_lr", "weight_decay", "grad_clip"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative, not {getattr(self, name)!r}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, not {self.eps!r}")
        if isinstance(self.loss, dict):
            self.loss = LossConfig(**self.loss)
        if self.loss.bank_capacity < self.batch_size:
            raise ValueError(f"bank capacity {self.loss.bank_capacity} is below the batch size {self.batch_size}")


def lr_at(config: TrainConfig, step: int, total_steps: int) -> float:
    """Linear warmup to base_lr, then cosine decay to 0 (or constant)."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = math.ceil(config.warmup_fraction * total_steps)
    if step < warmup:
        return config.base_lr * step / warmup
    if config.schedule == "constant":
        return config.base_lr
    if total_steps == warmup:
        return config.base_lr
    t = (step - warmup) / (total_steps - warmup)
    return config.base_lr * 0.5 * (1.0 + math.cos(math.pi * t))


class AdamW:
    """Decoupled-weight-decay Adam over a name->Tensor parameter dict."""

    def __init__(self, params: dict, config: TrainConfig):
        self.params = params
        self.config = config
        self.t = 0
        self.m = {k: np.zeros_like(p.values) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.values) for k, p in params.items()}

    def step(self, lr: float):
        cfg = self.config
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.values)
            if not np.all(np.isfinite(g)):
                raise ArithmeticError(f"non-finite gradient in parameter {name}")
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.values = p.values - lr * (m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * p.values)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def load_state(self, state: dict):
        self.t = int(state["t"])
        for k in self.m:
            self.m[k] = np.asarray(state["m"][k]).reshape(self.m[k].shape).astype(self.m[k].dtype)
            self.v[k] = np.asarray(state["v"][k]).reshape(self.v[k].shape).astype(self.v[k].dtype)


class Model:
    """The full parameter bundle: RS encoder, SV encoder, location encoder,
    and the implicit decoder."""

    def __init__(self, rs_config: EncoderConfig, sv_config: EncoderConfig, loc_config: LocEncoderConfig, seed: int, dtype=np.float32):
        if rs_config.dim != sv_config.dim or rs_config.dim != loc_config.dim:
            raise ValueError("all encoders must share the embedding dimension")
        rng = _stream(seed, _STREAM_MODEL_INIT)
        self.rs = ImageEncoder(rs_config, rng, prefix="rs", dtype=dtype)
        self.sv = ImageEncoder(sv_config, rng, prefix="sv", dtype=dtype)
        self.loc = LocationEncoder(loc_config, rng, prefix="loc", dtype=dtype)
        self.ftheta = FThetaParams.init(rs_config.dim, rng, dtype=dtype)
        self.seed = seed
        self.dtype = dtype

    def parameters(self) -> dict:
        out = {}
        out.update(self.rs.params)
        out.update(self.sv.params)
        out.update(self.loc.params)
        out.update(self.ftheta.named())
        return out

    def localized_rs(self, rs_images: np.ndarray, local_uv: np.ndarray) -> Tensor:
        fm = self.rs.encode_feature_maps(rs_images)
        return inr_lookup(self.ftheta, fm, local_uv)

    def configs(self) -> dict:
        return {
            "rs": asdict(self.rs.config),
            "sv": asdict(self.sv.config),
            "loc": asdict(self.loc.config),
            "seed": self.seed,
        }

    @staticmethod
    def from_configs(cfg: dict, dtype=np.float32) -> "Model":
        return Model(
            EncoderConfig(**cfg["rs"]),
            EncoderConfig(**cfg["sv"]),
            LocEncoderConfig(**cfg["loc"]),
            seed=cfg["seed"],
            dtype=dtype,
        )


def _squared_grad_sums(params: dict) -> dict:
    """Each present gradient's sum of squares, accumulated in float64; a
    norm is the square root of the sum of these, added in `params` order."""
    return {name: float(np.sum(p.grad.astype(np.float64) ** 2)) for name, p in params.items() if p.grad is not None}


def _clip_gradients(params: dict, norm: float, max_norm: float):
    """Scale every gradient by max_norm / norm when their global norm `norm`
    exceeds max_norm > 0."""
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale


def train_step(model: Model, batch: TripleBatch, bank: MemoryBank, optimizer: AdamW, config: TrainConfig, lr: float) -> dict:
    """One optimization step; pushes the batch's location embeddings into
    the bank after the loss is computed."""
    t0 = time.perf_counter()
    optimizer.zero_grad()
    with enable_grad():
        z_q = model.localized_rs(batch.rs, batch.local_uv)
        g_s = model.sv.encode_pooled(batch.sv)
        e_x = model.loc.encode(batch.lonlat)
        incl = incl_loss(z_q, g_s, config.loss.tau)
        secl = secl_loss(e_x, z_q, g_s, bank, config.loss.tau)
        total = combined_loss(incl, secl, config.loss.lambda_secl)
    backward(total)
    squares = _squared_grad_sums(optimizer.params)
    grad_norm = math.sqrt(sum(squares.values()))
    loc_norm = math.sqrt(sum(squares[name] for name in model.loc.params if name in squares))
    _clip_gradients(optimizer.params, grad_norm, config.grad_clip)
    optimizer.step(lr)
    bank.push(e_x.values.astype(np.float64))
    return {
        "incl": float(incl.values),
        "secl": float(secl.values),
        "total": float(total.values),
        "grad_norm": grad_norm,
        "grad_norm_loc": loc_norm,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
    }


def config_hash(model: Model, config: TrainConfig) -> str:
    """The checkpoint header's short hash of the model and training configs."""
    configs = {"model": model.configs(), "train": asdict(config)}
    return hashlib.sha256(json.dumps(configs, sort_keys=True).encode()).hexdigest()[:16]


def train(model, records, config: TrainConfig, bank=None, optimizer=None, start_step=0, metrics_fh=None, checkpoint_dir=None):
    """Run the full training loop; deterministic given (model seed, config).

    Epoch shuffling and augmentation draw from counter-based streams keyed
    by (seed, epoch) and (seed, step), so a resumed run replays the
    identical batches.
    """
    bank = bank or MemoryBank(config.loss.bank_capacity)
    optimizer = optimizer or AdamW(model.parameters(), config)

    n = len(records)
    steps_per_epoch = n // config.batch_size  # last incomplete batch dropped
    if steps_per_epoch == 0:
        raise ValueError("dataset smaller than one batch")
    total_steps = steps_per_epoch * config.epochs
    metrics_log = []
    for step in range(start_step, total_steps):
        epoch, b = divmod(step, steps_per_epoch)
        if b == 0 or step == start_step:
            perm = _stream(config.seed, _STREAM_EPOCH_BASE + epoch).permutation(n)
        idx = perm[b * config.batch_size : (b + 1) * config.batch_size]
        batch = make_batch(records, idx, _stream(config.seed, _STREAM_AUGMENT_BASE + step), augment=True)
        lr = lr_at(config, step, total_steps)
        metrics = train_step(model, batch, bank, optimizer, config, lr)
        metrics.update(step=step, lr=lr)
        metrics_log.append(metrics)
        if metrics_fh is not None:
            metrics_fh.write(json.dumps(metrics, sort_keys=True) + "\n")
            metrics_fh.flush()
        if checkpoint_dir and config.eval_every and (step + 1) % config.eval_every == 0:
            save_checkpoint(os.path.join(checkpoint_dir, f"ckpt_{step + 1:06d}.bin"), model, optimizer, bank, config, step + 1)
    return model, optimizer, bank, metrics_log


# -- checkpoint format ----------------------------------------------------------
#
# magic (8) | version <u32 | header_len <u64 | header JSON (utf-8) | raw data.
# The version lives in the preamble alone. Only version 3 loads: older
# files hold a decoder weight of another shape, (9D+2, D). The header lists
# every array (name, dtype, shape, offset into the data section, in order),
# the model dtype, the step, config, and config hash. Each array starts
# where the previous one ends, and the last one ends the file.


def _checkpoint_arrays(model: Model, optimizer: AdamW, bank: MemoryBank) -> list:
    """(name, array) for every array a checkpoint holds, in file order."""
    params = model.parameters()
    return ([(f"param/{n}", params[n].values) for n in sorted(params)]
            + [(f"adam_{k}/{n}", getattr(optimizer, k)[n]) for n in sorted(optimizer.m) for k in "mv"]
            + [("bank", bank.snapshot()), ("rff_B", model.loc.B)])


def save_checkpoint(path, model: Model, optimizer: AdamW, bank: MemoryBank, config: TrainConfig, step: int):
    entries, blobs, offset = [], [], 0
    for name, arr in _checkpoint_arrays(model, optimizer, bank):
        kind = "f8" if arr.dtype == np.float64 else "f4"
        blobs.append(np.ascontiguousarray(arr, dtype="<" + kind).tobytes())
        entries.append({"name": name, "dtype": kind, "shape": list(arr.shape), "offset": offset})
        offset += len(blobs[-1])
    header = {
        "dtype": np.dtype(model.dtype).name,
        "step": step,
        "adam_t": optimizer.t,
        "model": model.configs(),
        "train_config": asdict(config),
        "config_hash": config_hash(model, config),
        "arrays": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with _replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<IQ", CKPT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for b in blobs:
            fh.write(b)


def load_checkpoint(path) -> dict:
    """Returns dict with model, optimizer state arrays, bank, config, step."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"unreadable checkpoint {path}: {exc}") from None
    if raw[:8] != CKPT_MAGIC:
        raise FormatError("bad checkpoint magic", offset=0)
    if len(raw) < 20:
        raise FormatError("checkpoint truncated in its preamble", offset=len(raw))
    version, header_len = struct.unpack_from("<IQ", raw, 8)
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    header_end = 20 + header_len
    try:
        header = json.loads(raw[20:header_end])
    except ValueError:
        raise FormatError("corrupt checkpoint header", offset=20) from None
    require_keys(header, ("dtype", "step", "adam_t", "model", "train_config", "config_hash", "arrays"), "checkpoint header")
    require_keys(header["model"], ("rs", "sv", "loc", "seed"), "checkpoint model config")
    for key in ("step", "adam_t"):
        if not isinstance(header[key], int) or header[key] < 0:
            raise FormatError(f"checkpoint {key} must be a non-negative integer, not {header[key]!r}")
    dtype = header["dtype"]
    if not isinstance(dtype, str) or dtype not in _MODEL_DTYPES:
        raise FormatError(f"unsupported checkpoint model dtype {dtype!r}")
    try:
        model = Model.from_configs(header["model"], dtype=_MODEL_DTYPES[dtype])
        config = TrainConfig(**header["train_config"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed config in checkpoint header: {exc}") from None
    if header["config_hash"] != config_hash(model, config):
        raise FormatError("checkpoint config_hash does not match its configs")

    params = model.parameters()
    optimizer = AdamW(params, config)
    bank = MemoryBank(config.loss.bank_capacity)
    shapes = {name: arr.shape for name, arr in _checkpoint_arrays(model, optimizer, bank)}
    entries = header["arrays"]
    if not isinstance(entries, list):
        raise FormatError("checkpoint arrays is not a list")
    for e in entries:
        require_keys(e, ("name", "dtype", "shape", "offset"), "checkpoint array entry")
    require_keys({str(e["name"]): e for e in entries}, shapes, "checkpoint arrays")
    data = raw[header_end:]
    arrays, cursor = {}, 0
    for e in entries:
        name, shape = str(e["name"]), e["shape"]
        if e["offset"] != cursor:
            raise FormatError(f"array {name} does not start where the previous array ends", offset=header_end + cursor)
        if e["dtype"] not in ("f4", "f8"):
            raise FormatError(f"unsupported dtype {e['dtype']!r} in array {name}")
        if not (isinstance(shape, list) and all(isinstance(n, int) and n >= 0 for n in shape)):
            raise FormatError(f"array {name} has a malformed shape {shape!r}")
        # An empty bank is saved as (0, 0), a filled one as (rows, dim).
        bank_fits = name == "bank" and len(shape) == 2 and shape[0] <= bank.capacity and shape[1] == model.loc.config.dim
        if not bank_fits and tuple(shape) != shapes.get(name):
            raise FormatError(f"array {name} has shape {shape}, which does not fit the model")
        count = math.prod(shape)
        end = cursor + count * np.dtype(e["dtype"]).itemsize
        if end > len(data):
            raise FormatError(f"checkpoint truncated in array {name}", offset=header_end + cursor)
        arrays[name] = np.frombuffer(data, dtype="<" + e["dtype"], count=count, offset=cursor).reshape(shape).copy()
        cursor = end
    if cursor != len(data):
        raise FormatError(f"checkpoint has {len(data) - cursor} bytes after its last array", offset=header_end + cursor)

    for name, p in params.items():
        p.values = arrays[f"param/{name}"].astype(p.dtype)
    model.loc.B = arrays["rff_B"].astype(np.float64)
    optimizer.load_state({"t": header["adam_t"], "m": {n: arrays[f"adam_m/{n}"] for n in params},
                          "v": {n: arrays[f"adam_v/{n}"] for n in params}})
    try:
        bank.load_state(arrays["bank"])
    except ContractError as exc:
        raise FormatError(f"checkpoint bank: {exc}") from None
    return {"model": model, "optimizer": optimizer, "bank": bank, "config": config, "step": header["step"], "header": header}
