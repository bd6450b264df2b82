"""Contrastive objectives: symmetric InfoNCE between localized RS and SV
embeddings, the location-anchored loss with a FIFO memory bank of past
location embeddings, and their weighted combination.

Each InfoNCE loss is one graph node in closed form: its forward pass
computes the logits and their log-softmax in numpy, and its backward pass
takes each term's logit gradient, softmax minus the targets' one-hot,
from `gair.tensor`'s cross-entropy helpers, scales it by 1 / tau and
applies one matrix product per input. Both losses take batches of n > 0
unit-norm rows of one width and raise ShapeMismatchError, ValueError
(empty batch) or ContractError (rows not unit-norm) otherwise; NaN
logits raise NumericError. The bank's rows take part in the forward pass
only, as a numpy array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_number_fields
from .tensor import ContractError, ShapeMismatchError, Tensor, _cross_entropy_grad, _log_softmax, _mean_nll

__all__ = ["LossConfig", "MemoryBank", "incl_loss", "secl_loss", "combined_loss"]


@dataclass
class LossConfig:
    tau: float = 0.07
    lambda_secl: float = 1.0
    bank_capacity: int = 4096

    def __post_init__(self):
        check_number_fields(self)
        if not 0 < self.tau < math.inf:
            raise ValueError(f"temperature must be positive and finite, not {self.tau!r}")
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
        _check_unit_rows(batch, "bank")
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
        newest `capacity` rows are kept. Raises ContractError, as `push`
        does, unless every row is unit-norm."""
        rows = np.atleast_2d(np.asarray(entries, dtype=np.float64))
        _check_unit_rows(rows, "bank")
        self._rows = rows[-self.capacity :].copy() if rows.size else np.zeros((0, 0))


def _check_unit_rows(rows: np.ndarray, what: str):
    """Raise ContractError unless every row's L2 norm is within 1e-3 of 1;
    a row holding NaN or inf fails."""
    deviation = np.abs(np.linalg.norm(rows, axis=-1) - 1.0)
    if not np.all(deviation <= 1e-3):
        raise ContractError(f"{what} rows are not unit-norm (max deviation {np.max(deviation):.2e})")


def _check_batch(*named) -> int:
    """The batch size n of (name, Tensor) pairs. Raises ShapeMismatchError
    unless all are (n, D) of one shape, ValueError if n is 0, and
    ContractError unless every row is unit-norm."""
    shape = named[0][1].shape
    if any(x.ndim != 2 or x.shape != shape for _, x in named):
        raise ShapeMismatchError("the losses need batches of one shape (n, D): "
                                 + ", ".join(f"{what} {x.shape}" for what, x in named))
    if shape[0] == 0:
        raise ValueError("empty batch")
    for what, x in named:
        _check_unit_rows(x.values, what)
    return shape[0]


def incl_loss(z_q: Tensor, g_s: Tensor, tau: float) -> Tensor:
    """Symmetric InfoNCE between matched localized-RS and SV embeddings.

    One node over the logits L = z g^T / tau, z and g the rows of z_q and
    g_s: the mean of the row-wise and the column-wise cross-entropy, each
    with targets on the diagonal. Its backward pass sums the two logit
    gradients, (softmax - I) / 2n times the incoming gradient, scales the
    sum by 1 / tau to d, and passes back dz = d g and dg = (z^T d)^T."""
    n = _check_batch(("localized RS embeddings", z_q), ("SV embeddings", g_s))
    c = float(1.0 / tau)
    z, g = z_q.values, g_s.values
    logits = (z @ g.T) * c
    logp_rs, logp_sv = _log_softmax(logits), _log_softmax(logits.T)
    matched = np.arange(n)

    def bwd(grad):
        m = grad * 0.5 * (1.0 / n)
        d = (_cross_entropy_grad(logp_rs, matched, m) + _cross_entropy_grad(logp_sv, matched, m).T) * c
        z_q._accumulate(d @ g)
        g_s._accumulate((z.T @ d).T)

    return Tensor._make((_mean_nll(logp_rs, matched) + _mean_nll(logp_sv, matched)) * 0.5, (z_q, g_s), bwd)


def secl_loss(e_x: Tensor, z_q: Tensor, g_s: Tensor, bank: MemoryBank, tau: float) -> Tensor:
    """Location-anchored InfoNCE, negatives = current batch plus bank.

    For each anchor (z or g), the positive is its colocated current-batch
    location embedding; the denominator additionally ranges over stored
    past location embeddings, which receive no gradient. The stored rows
    were checked unit-norm when they entered the bank. One node: each
    anchor's logit gradient, (softmax - onehot) / 2n times the incoming
    gradient and scaled by 1 / tau, goes through one product per input;
    the location embeddings read only its first n columns, those of the
    current batch.
    """
    n = _check_batch(("location embeddings", e_x), ("localized RS embeddings", z_q), ("SV embeddings", g_s))
    c = float(1.0 / tau)
    e, z, g = e_x.values, z_q.values, g_s.values
    stored = bank.snapshot()
    candidates = np.concatenate([e, stored.astype(e.dtype)]) if stored.size else e
    logp_rs, logp_sv = _log_softmax((z @ candidates.T) * c), _log_softmax((g @ candidates.T) * c)
    matched = np.arange(n)

    def bwd(grad):
        m = grad * 0.5 * (1.0 / n)
        d_rs = _cross_entropy_grad(logp_rs, matched, m) * c
        d_sv = _cross_entropy_grad(logp_sv, matched, m) * c
        z_q._accumulate(d_rs @ candidates)
        g_s._accumulate(d_sv @ candidates)
        e_x._accumulate((z.T @ d_rs[:, :n] + g.T @ d_sv[:, :n]).T)

    return Tensor._make((_mean_nll(logp_rs, matched) + _mean_nll(logp_sv, matched)) * 0.5, (e_x, z_q, g_s), bwd)


def combined_loss(incl: Tensor, secl: Tensor, lambda_secl: float) -> Tensor:
    return incl + secl.scale(lambda_secl)
