"""Contrastive objectives: symmetric InfoNCE between localized RS and SV
embeddings, the location-anchored loss with a FIFO memory bank of past
location embeddings, and their weighted combination."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ContractError, Tensor, concat, cross_entropy, matmul

__all__ = ["LossConfig", "MemoryBank", "sim_matrix", "incl_loss", "secl_loss", "combined_loss"]


@dataclass
class LossConfig:
    tau: float = 0.07
    lambda_secl: float = 1.0
    bank_capacity: int = 4096

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"temperature must be positive, not {self.tau!r}")
        if not 0 <= self.lambda_secl < math.inf:
            raise ValueError(f"lambda_secl must be finite and non-negative, not {self.lambda_secl!r}")
        if self.bank_capacity < 1:
            raise ValueError("bank capacity must be positive")


class MemoryBank:
    """FIFO of detached unit-norm vectors from past mini-batches.

    Rows are kept oldest-first in one float64 array, which every push
    replaces, so a snapshot taken earlier keeps its rows.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("bank capacity must be positive")
        self.capacity = capacity
        self._rows = np.zeros((0, 0))

    def __len__(self):
        return len(self._rows)

    def push(self, batch: np.ndarray):
        """Append the batch's rows, keeping the newest `capacity`."""
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        n = batch.shape[0]
        if n > self.capacity:
            raise ValueError(f"batch of {n} exceeds bank capacity {self.capacity}")
        norms = np.linalg.norm(batch, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-3):
            raise ContractError("bank entries must be unit-norm")
        if n:
            dropped = max(0, len(self) + n - self.capacity)
            self._rows = np.concatenate([self._rows[dropped:], batch]) if len(self) else batch.copy()

    def snapshot(self) -> np.ndarray:
        """Contents oldest-first as a read-only (k, D) view; (0, 0) when empty."""
        rows = self._rows.view()
        rows.flags.writeable = False
        return rows

    def load_state(self, entries: np.ndarray):
        """Replace the contents with `entries` (oldest-first); only the
        newest `capacity` rows are kept."""
        rows = np.atleast_2d(np.asarray(entries, dtype=np.float64))
        self._rows = rows[-self.capacity :].copy() if rows.size else np.zeros((0, 0))


def _check_unit_rows(x: Tensor, what: str):
    norms = np.linalg.norm(x.values, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-3):
        raise ContractError(f"{what} rows are not unit-norm (max deviation {np.max(np.abs(norms - 1.0)):.2e})")


def sim_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarities of unit-norm rows: (n, D) x (m, D) -> (n, m)."""
    _check_unit_rows(a, "sim_matrix lhs")
    _check_unit_rows(b, "sim_matrix rhs")
    return matmul(a, b.transpose())


def incl_loss(z_q: Tensor, g_s: Tensor, tau: float) -> Tensor:
    """Symmetric InfoNCE between matched localized-RS and SV embeddings."""
    if z_q.shape[0] == 0:
        raise ValueError("empty batch")
    logits = sim_matrix(z_q, g_s).scale(1.0 / tau)
    matched = np.arange(z_q.shape[0])
    return (cross_entropy(logits, matched) + cross_entropy(logits.transpose(), matched)).scale(0.5)


def secl_loss(e_x: Tensor, z_q: Tensor, g_s: Tensor, bank: MemoryBank, tau: float) -> Tensor:
    """Location-anchored InfoNCE, negatives = current batch plus bank.

    For each anchor (z or g), the positive is its colocated current-batch
    location embedding; the denominator additionally ranges over stored
    past location embeddings, which receive no gradient.
    """
    n = e_x.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    _check_unit_rows(e_x, "location embeddings")
    stored = bank.snapshot()
    candidates = e_x
    if stored.size:
        candidates = concat([e_x, Tensor(stored.astype(e_x.dtype))], axis=0)
    logits_rs = sim_matrix(z_q, candidates).scale(1.0 / tau)
    logits_sv = sim_matrix(g_s, candidates).scale(1.0 / tau)
    matched = np.arange(n)
    return (cross_entropy(logits_rs, matched) + cross_entropy(logits_sv, matched)).scale(0.5)


def combined_loss(incl: Tensor, secl: Tensor, lambda_secl: float) -> Tensor:
    return incl + secl.scale(lambda_secl)
