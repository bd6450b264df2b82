import math
from collections import deque

import numpy as np
import pytest

from gair.objectives import (
    LossConfig,
    MemoryBank,
    combined_loss,
    incl_loss,
    secl_loss,
    sim_matrix,
)
from gair.tensor import ContractError, Tensor, backward, enable_grad, grad_check, l2_normalize_rows


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def orthonormal_rows(n, d):
    assert n <= d
    return np.eye(n, d)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.tau == 0.07 and cfg.lambda_secl == 1.0 and cfg.bank_capacity == 4096

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)
        with pytest.raises(ValueError):
            LossConfig(bank_capacity=0)
        for kw in ({"tau": float("nan")}, {"lambda_secl": float("nan")}, {"lambda_secl": -1.0}, {"lambda_secl": float("inf")}):
            with pytest.raises(ValueError):
                LossConfig(**kw)
        assert LossConfig(lambda_secl=0.0).lambda_secl == 0.0


class TestMemoryBank:
    def test_fifo_eviction_matches_deque(self):
        rng = np.random.default_rng(0)
        bank = MemoryBank(capacity=5)
        ref = deque(maxlen=5)
        for _ in range(10):
            batch = unit_rows(rng, 2, 4)
            bank.push(batch)
            for row in batch:
                ref.append(row)
            assert len(bank) == len(ref)
            assert np.array_equal(bank.snapshot(), np.stack(list(ref)))

    def test_oversized_batch_rejected(self):
        bank = MemoryBank(capacity=3)
        with pytest.raises(ValueError):
            bank.push(unit_rows(np.random.default_rng(1), 4, 4))

    def test_non_unit_rows_rejected(self):
        bank = MemoryBank(capacity=4)
        with pytest.raises(ContractError):
            bank.push(np.array([[1.0, 1.0]]))

    def test_snapshot_is_read_only_and_kept_by_later_pushes(self):
        rng = np.random.default_rng(2)
        bank = MemoryBank(capacity=4)
        batch = unit_rows(rng, 2, 3)
        bank.push(batch)
        batch[0, 0] = 99.0
        snap = bank.snapshot()
        assert snap[0, 0] != 99.0
        with pytest.raises(ValueError):
            snap[0, 0] = 99.0
        kept = snap.copy()
        for _ in range(3):
            bank.push(unit_rows(rng, 2, 3))
        assert np.array_equal(snap, kept) and not np.array_equal(bank.snapshot(), kept)

    def test_empty_bank_snapshots_as_0_by_0(self):
        bank = MemoryBank(capacity=4)
        assert bank.snapshot().shape == (0, 0) and len(bank) == 0
        bank.load_state(np.zeros((0, 0)))
        assert bank.snapshot().shape == (0, 0)
        bank.push(unit_rows(np.random.default_rng(4), 3, 5))
        assert bank.snapshot().shape == (3, 5)
        with pytest.raises(ValueError):
            bank.push(unit_rows(np.random.default_rng(5), 1, 4))

    def test_state_roundtrip(self):
        bank = MemoryBank(capacity=8)
        bank.push(unit_rows(np.random.default_rng(3), 5, 4))
        clone = MemoryBank(capacity=8)
        clone.load_state(bank.snapshot())
        assert np.array_equal(bank.snapshot(), clone.snapshot())


class TestSimMatrix:
    def test_identity_pairs(self):
        a = Tensor(orthonormal_rows(3, 4))
        s = sim_matrix(a, a)
        assert np.allclose(s.values, np.eye(3))

    def test_known_angle(self):
        a = Tensor(np.array([[1.0, 0.0]]))
        b = Tensor(np.array([[math.cos(0.3), math.sin(0.3)]]))
        assert abs(sim_matrix(a, b).values[0, 0] - math.cos(0.3)) < 1e-12

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ContractError):
            sim_matrix(Tensor(np.array([[2.0, 0.0]])), Tensor(np.array([[1.0, 0.0]])))


class TestInclLoss:
    def test_single_pair_is_zero(self):
        v = Tensor(np.array([[0.6, 0.8]]))
        loss = incl_loss(v, v, tau=0.07)
        assert abs(float(loss.values)) < 1e-12

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_identical_rows_give_log_n(self, n):
        row = np.array([0.6, 0.0, 0.8])
        z = Tensor(np.tile(row, (n, 1)))
        loss = float(incl_loss(z, z, tau=0.07).values)
        assert abs(loss - math.log(n)) < 1e-9

    @pytest.mark.parametrize("tau", [0.07, 0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_orthonormal_closed_form(self, tau, n):
        z = Tensor(orthonormal_rows(n, 64))
        loss = float(incl_loss(z, z, tau=tau).values)
        expected = math.log(1.0 + (n - 1) * math.exp(-1.0 / tau))
        assert abs(loss - expected) < 1e-6

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(4)
        z = Tensor(unit_rows(rng, 6, 8))
        g = Tensor(unit_rows(rng, 6, 8))
        a = float(incl_loss(z, g, tau=0.2).values)
        b = float(incl_loss(g, z, tau=0.2).values)
        assert a == pytest.approx(b, abs=1e-12)

    def test_sharper_temperature_shrinks_orthonormal_loss(self):
        n = 16
        z = Tensor(orthonormal_rows(n, 32))
        losses = [float(incl_loss(z, z, tau=t).values) for t in (1.0, 0.5, 0.07)]
        assert losses[0] > losses[1] > losses[2]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            incl_loss(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))), tau=0.1)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        z_raw = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g_raw = Tensor(rng.normal(size=(4, 6)), requires_grad=True)

        def loss(z, g):
            return incl_loss(l2_normalize_rows(z), l2_normalize_rows(g), tau=0.3)

        assert grad_check(loss, [z_raw, g_raw], tolerance=1e-4).passed


def secl_reference(e_x, z_q, g_s, stored, tau):
    """Independent log-sum-exp implementation of the location-anchored loss."""
    cands = np.concatenate([e_x, stored], axis=0) if len(stored) else e_x
    total = 0.0
    for anchors in (z_q, g_s):
        for i, a in enumerate(anchors):
            logits = cands @ a / tau
            total += -(logits[i] - np.log(np.sum(np.exp(logits - logits.max())))
                       - logits.max())
    return total / (2 * len(z_q))


class TestSeclLoss:
    @pytest.mark.parametrize("bank_size", [0, 8, 64])
    def test_matches_brute_force_oracle(self, bank_size):
        rng = np.random.default_rng(bank_size)
        n, d = 6, 16
        e_x = unit_rows(rng, n, d)
        z_q = unit_rows(rng, n, d)
        g_s = unit_rows(rng, n, d)
        bank = MemoryBank(capacity=max(1, bank_size))
        stored = unit_rows(rng, bank_size, d) if bank_size else np.zeros((0, d))
        if bank_size:
            bank.push(stored)
        loss = float(secl_loss(Tensor(e_x), Tensor(z_q), Tensor(g_s), bank, tau=0.07).values)
        assert abs(loss - secl_reference(e_x, z_q, g_s, stored, 0.07)) < 1e-6

    def test_bank_entries_get_no_gradient(self):
        rng = np.random.default_rng(9)
        n, d = 4, 8
        e_x = Tensor(unit_rows(rng, n, d), requires_grad=True)
        z_q = Tensor(unit_rows(rng, n, d), requires_grad=True)
        g_s = Tensor(unit_rows(rng, n, d), requires_grad=True)
        bank = MemoryBank(capacity=16)
        bank.push(unit_rows(rng, 8, d))
        before = bank.snapshot().copy()
        with enable_grad():
            backward(secl_loss(e_x, z_q, g_s, bank, tau=0.1))
        assert e_x.grad is not None and z_q.grad is not None and g_s.grad is not None
        assert np.array_equal(bank.snapshot(), before)

    def test_perfect_alignment_empty_bank(self):
        # anchors equal to their positive location embeddings, orthonormal batch
        n = 8
        e = Tensor(orthonormal_rows(n, 16))
        loss = float(secl_loss(e, e, e, MemoryBank(capacity=4), tau=0.07).values)
        expected = math.log(1.0 + (n - 1) * math.exp(-1.0 / 0.07))
        assert abs(loss - expected) < 1e-6

    def test_gradients_with_bank(self):
        rng = np.random.default_rng(11)
        n, d = 3, 5
        bank = MemoryBank(capacity=8)
        bank.push(unit_rows(rng, 4, d))
        e_raw = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        z_raw = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        g_raw = Tensor(rng.normal(size=(n, d)), requires_grad=True)

        def loss(e, z, g):
            return secl_loss(
                l2_normalize_rows(e), l2_normalize_rows(z), l2_normalize_rows(g), bank, tau=0.2
            )

        assert grad_check(loss, [e_raw, z_raw, g_raw], tolerance=1e-4).passed


class TestCombinedLoss:
    def test_weighted_sum(self):
        a = Tensor(np.array(1.25))
        b = Tensor(np.array(0.5))
        assert float(combined_loss(a, b, 2.0).values) == pytest.approx(2.25, abs=1e-15)

    def test_lambda_zero_drops_second_term(self):
        a = Tensor(np.array(0.7))
        b = Tensor(np.array(123.0))
        assert float(combined_loss(a, b, 0.0).values) == pytest.approx(0.7, abs=1e-15)

    def test_linear_in_lambda(self):
        a = Tensor(np.array(0.3))
        b = Tensor(np.array(0.9))
        v1 = float(combined_loss(a, b, 1.0).values)
        v2 = float(combined_loss(a, b, 2.0).values)
        v3 = float(combined_loss(a, b, 3.0).values)
        assert v3 - v2 == pytest.approx(v2 - v1, abs=1e-12)
