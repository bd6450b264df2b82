import contextlib
import hashlib
import math
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from gair import training
from gair.cli import build_model
from gair.datagen import DataConfig, generate_records, make_batch
from gair.encoders import EncoderConfig, LocEncoderConfig
from gair.errors import FormatError
from gair.objectives import LossConfig, MemoryBank
from gair.tensor import Tensor, backward, enable_grad
from gair.training import (
    AdamW,
    Model,
    TrainConfig,
    _clip_gradients,
    _squared_grad_sums,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
    train_step,
)


def tiny_model(seed=7, dim=8, dtype=np.float32):
    return Model(
        EncoderConfig(channels=3, image_size=8, patch_size=4, dim=dim, depth=1, heads=2, ff_width=16),
        EncoderConfig(channels=1, image_size=8, patch_size=4, dim=dim, depth=1, heads=2, ff_width=16),
        LocEncoderConfig(freqs=16, sigma=10.0, hidden=16, dim=dim),
        seed=seed,
        dtype=dtype,
    )


def graph_nodes(root):
    """Every node reachable from `root` through `_parents`, as `backward` walks them."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def tiny_records(count=20, seed=7):
    cfg = DataConfig(count=count, seed=seed, rs_size=8, sv_size=8, temporal_variants=2)
    return generate_records(cfg)


def tiny_train_config(**kw):
    defaults = dict(batch_size=4, epochs=2, base_lr=1e-3, seed=7,
                    loss=LossConfig(tau=0.07, lambda_secl=1.0, bank_capacity=32))
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestSchedule:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64 and cfg.epochs == 30
        assert cfg.base_lr == 1e-3 and cfg.warmup_fraction == 0.05
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999 and cfg.weight_decay == 0.003
        assert cfg.grad_clip == 5.0 and cfg.schedule == "cosine"

    def test_warmup_is_linear(self):
        cfg = TrainConfig(base_lr=1.0, warmup_fraction=0.1)
        # 100 total steps -> 10 warmup steps
        assert lr_at(cfg, 0, 100) == 0.0
        assert lr_at(cfg, 5, 100) == pytest.approx(0.5)
        assert lr_at(cfg, 10, 100) == pytest.approx(1.0)

    def test_cosine_tail(self):
        cfg = TrainConfig(base_lr=2.0, warmup_fraction=0.0)
        assert lr_at(cfg, 0, 100) == pytest.approx(2.0)
        assert lr_at(cfg, 50, 100) == pytest.approx(1.0)
        assert lr_at(cfg, 100, 100) == pytest.approx(0.0, abs=1e-15)

    def test_constant_schedule(self):
        cfg = TrainConfig(base_lr=0.5, warmup_fraction=0.1, schedule="constant")
        assert lr_at(cfg, 50, 100) == 0.5
        assert lr_at(cfg, 100, 100) == 0.5

    def test_single_peak(self):
        cfg = TrainConfig(base_lr=1.0, warmup_fraction=0.05)
        lrs = [lr_at(cfg, s, 200) for s in range(201)]
        peak = int(np.argmax(lrs))
        assert all(lrs[i] <= lrs[i + 1] for i in range(peak))
        assert all(lrs[i] >= lrs[i + 1] for i in range(peak, 200))

    @pytest.mark.parametrize("kw", [{"schedule": "bogus"}, {"epochs": "x"}, {"batch_size": 64.0}, {"seed": None}, {"eval_every": 1.5},
                                    {"base_lr": -1.0}, {"beta1": 1.0}, {"beta2": -0.1}, {"eps": 0.0},
                                    {"weight_decay": -0.1}, {"grad_clip": -1.0}, {"base_lr": float("nan")},
                                    {"epochs": -1}, {"eval_every": -1}, {"loss": {"bank_capacity": 63}}])
    def test_config_rejects_bad_values(self, kw):
        with pytest.raises((TypeError, ValueError)):
            TrainConfig(**kw)

    def test_out_of_range_step(self):
        with pytest.raises(ValueError):
            lr_at(TrainConfig(), 5, 4)


class TestAdamW:
    def test_first_step_moves_by_lr(self):
        # with bias correction, |delta| ~= lr regardless of gradient scale
        cfg = TrainConfig(weight_decay=0.0)
        p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        p.grad = np.array([3.0, -0.5, 10.0, 1e-3], dtype=np.float32)
        opt = AdamW({"p": p}, cfg)
        opt.step(lr=0.1)
        expected = -0.1 * np.sign(p.grad) * (np.abs(p.grad) / (np.abs(p.grad) + cfg.eps))
        assert np.allclose(p.values, expected, atol=1e-6)

    def test_decoupled_weight_decay(self):
        # zero gradient: the only update is the decay term, lr * wd * theta
        cfg = TrainConfig(weight_decay=0.01)
        p = Tensor(np.full(3, 2.0, dtype=np.float32), requires_grad=True)
        p.grad = np.zeros(3, dtype=np.float32)
        opt = AdamW({"p": p}, cfg)
        opt.step(lr=0.1)
        assert np.allclose(p.values, 2.0 * (1.0 - 0.1 * 0.01), atol=1e-7)

    def test_nonfinite_gradient_aborts(self):
        p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        p.grad = np.array([np.nan, 0.0], dtype=np.float32)
        opt = AdamW({"p": p}, TrainConfig())
        with pytest.raises(ArithmeticError, match="p"):
            opt.step(lr=0.1)

    def test_state_roundtrip(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
        opt = AdamW({"p": p}, TrainConfig())
        for _ in range(3):
            p.grad = rng.normal(size=3).astype(np.float32)
            opt.step(1e-3)
        clone = AdamW({"p": p}, TrainConfig())
        clone.load_state({"t": opt.t, "m": opt.m, "v": opt.v})
        assert clone.t == opt.t
        assert np.array_equal(clone.m["p"], opt.m["p"])


class TestModel:
    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError):
            Model(
                EncoderConfig(dim=64),
                EncoderConfig(dim=32, channels=1, image_size=16),
                LocEncoderConfig(dim=64),
                seed=0,
            )

    def test_parameter_prefixes(self):
        params = tiny_model().parameters()
        prefixes = {name.split(".")[0] for name in params}
        assert prefixes == {"rs", "sv", "loc", "ftheta"}

    def test_same_seed_same_init(self):
        a = tiny_model(seed=3).parameters()
        b = tiny_model(seed=3).parameters()
        assert all(np.array_equal(a[k].values, b[k].values) for k in a)

    def test_localized_rs_unit_norm(self):
        model = tiny_model()
        recs = tiny_records()
        batch = make_batch(recs, [0, 1, 2], np.random.default_rng(0), augment=False)
        z = model.localized_rs(batch.rs, batch.local_uv).values
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-5)


class TestForwardOnly:
    """Outside enable_grad() the encoders record no graph and give the
    values a recorded pass gives."""

    @staticmethod
    def embeddings(model, batch):
        return (model.localized_rs(batch.rs, batch.local_uv), model.sv.encode_pooled(batch.sv),
                model.loc.encode(batch.lonlat))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_untracked_embeddings_equal_tracked(self, dtype):
        model = tiny_model(dtype=dtype)
        batch = make_batch(tiny_records(), list(range(6)), np.random.default_rng(0), augment=False)
        untracked = self.embeddings(model, batch)
        with enable_grad():
            tracked = self.embeddings(model, batch)
        for u, t in zip(untracked, tracked):
            assert u._parents == () and u._backward is None and not u.requires_grad
            assert t._parents != ()
            assert u.dtype == dtype and np.array_equal(u.values, t.values)

    def test_untracked_localized_rs_peaks_under_a_third_of_tracked(self):
        cfg = DataConfig(count=64, seed=7)
        model = build_model(asdict(cfg), seed=7)
        batch = make_batch(generate_records(cfg), list(range(64)), np.random.default_rng(0), augment=False)

        def peak(tracked):
            tracemalloc.start()
            try:
                with enable_grad() if tracked else contextlib.nullcontext():
                    model.localized_rs(batch.rs, batch.local_uv)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(False) < peak(True) / 3


class TestTrainStep:
    def test_metrics_and_bank_growth(self):
        model = tiny_model()
        recs = tiny_records()
        cfg = tiny_train_config()
        bank = MemoryBank(cfg.loss.bank_capacity)
        opt = AdamW(model.parameters(), cfg)
        batch = make_batch(recs, list(range(4)), np.random.default_rng(0))
        m = train_step(model, batch, bank, opt, cfg, lr=1e-3)
        assert set(m) >= {"incl", "secl", "total", "grad_norm", "grad_norm_loc"}
        assert m["total"] == pytest.approx(m["incl"] + m["secl"], rel=1e-6)
        assert len(bank) == 4
        m2 = train_step(model, batch, bank, opt, cfg, lr=1e-3)
        assert len(bank) == 8

    def test_lambda_zero_freezes_location_encoder(self):
        model = tiny_model()
        recs = tiny_records()
        cfg = tiny_train_config(loss=LossConfig(tau=0.07, lambda_secl=0.0, bank_capacity=32))
        bank = MemoryBank(cfg.loss.bank_capacity)
        opt = AdamW(model.parameters(), cfg)
        loc_before = {k: p.values.copy() for k, p in model.loc.params.items()}
        batch = make_batch(recs, list(range(4)), np.random.default_rng(0))
        m = train_step(model, batch, bank, opt, cfg, lr=1e-3)
        assert m["grad_norm_loc"] == 0.0
        # AdamW still applies decay, so compare against the pure-decay update
        for k, p in model.loc.params.items():
            expected = loc_before[k] * (1.0 - 1e-3 * cfg.weight_decay)
            assert np.allclose(p.values, expected, atol=1e-8)

    def test_gradient_clipping_bounds_update(self):
        model = tiny_model()
        recs = tiny_records()
        cfg = tiny_train_config(grad_clip=1e-6)
        bank = MemoryBank(cfg.loss.bank_capacity)
        opt = AdamW(model.parameters(), cfg)
        batch = make_batch(recs, list(range(4)), np.random.default_rng(0))
        m = train_step(model, batch, bank, opt, cfg, lr=1e-3)
        assert m["grad_norm"] > 1e-6  # pre-clip norm is reported
        total = math.sqrt(sum(float(np.sum(p.grad.astype(np.float64) ** 2))
                              for p in opt.params.values() if p.grad is not None))
        assert total <= 1e-6 * (1 + 1e-5)
        # Both norms are measured before clipping: the same step unclipped
        # reports the same location-encoder norm, far above the clip bound.
        twin, unclipped_cfg = tiny_model(), tiny_train_config(grad_clip=0.0)
        unclipped = train_step(twin, batch, MemoryBank(cfg.loss.bank_capacity), AdamW(twin.parameters(), unclipped_cfg),
                               unclipped_cfg, lr=1e-3)
        assert m["grad_norm"] == unclipped["grad_norm"]
        assert m["grad_norm_loc"] == unclipped["grad_norm_loc"] > 1e-3

    @staticmethod
    def recorded_step(model, monkeypatch):
        """Run two real train_steps and return the second one's graph nodes
        and the optimizer; the first puts rows in the bank, so the graph
        holds them."""
        roots, real_backward = [], training.backward

        def recording_backward(root):
            roots.append(root)
            real_backward(root)

        recs = tiny_records()
        cfg = tiny_train_config()
        bank = MemoryBank(cfg.loss.bank_capacity)
        opt = AdamW(model.parameters(), cfg)
        batch = make_batch(recs, list(range(4)), np.random.default_rng(0))
        train_step(model, batch, bank, opt, cfg, lr=1e-3)
        monkeypatch.setattr(training, "backward", recording_backward)
        train_step(model, batch, bank, opt, cfg, lr=1e-3)
        return graph_nodes(roots[0]), opt

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_computes_in_model_dtype(self, dtype, monkeypatch):
        nodes, opt = self.recorded_step(tiny_model(dtype=dtype), monkeypatch)
        assert len(nodes) > 100
        assert {n.values.dtype for n in nodes} == {np.dtype(dtype)}
        assert {n.grad.dtype for n in nodes if n.grad is not None} == {np.dtype(dtype)}
        assert {a.dtype for a in [*opt.m.values(), *opt.v.values()]} == {np.dtype(dtype)}

    def test_constants_get_no_gradient(self, monkeypatch):
        model = tiny_model()
        nodes, _ = self.recorded_step(model, monkeypatch)
        constants = [n for n in nodes if not n.requires_grad]
        # The RS and SV patches, the RFF features and the bank snapshot.
        assert len(constants) == 4
        assert all(not n._parents for n in constants)
        assert [n.grad for n in constants] == [None] * len(constants)
        params = {id(p) for p in model.parameters().values()}
        assert all(n.grad is not None for n in nodes if id(n) in params)

    def test_inr_lookup_is_one_node(self, monkeypatch):
        """z_q normalizes one node over the RS feature map and f_theta's W and
        b; no unfolded map lies between the encoder and the lookup."""
        model = tiny_model()
        nodes, _ = self.recorded_step(model, monkeypatch)
        readers = [n for n in nodes if any(p is model.ftheta.weight for p in n._parents)]
        assert len(readers) == 1
        lookup = readers[0]
        assert lookup._backward.__qualname__.startswith("inr_lookup.")
        assert len(lookup._parents) == 3
        fm, weight, bias = lookup._parents
        assert weight is model.ftheta.weight and bias is model.ftheta.bias
        c = model.rs.config
        assert fm.shape == (4, c.grid, c.grid, c.dim)
        assert fm._backward.__qualname__.startswith("Tensor.reshape.")
        z_q = [n for n in nodes if any(p is lookup for p in n._parents)]
        assert len(z_q) == 1 and z_q[0]._backward.__qualname__.startswith("l2_normalize_rows.")

    def test_attention_reads_the_projections_and_blocks_hold_no_shape_ops(self, monkeypatch):
        """Each attention node's parents are exactly the q, k and v matmul
        outputs of its block's first layer norm, and no reshape or transpose
        node lies between an encoder block's input and its output."""
        model = tiny_model()
        nodes, _ = self.recorded_step(model, monkeypatch)

        def op(node):
            return node._backward.__qualname__.split(".<locals>")[0].split(".")[-1] if node._backward else None

        children = {id(n): [] for n in nodes}
        for n in nodes:
            for p in n._parents:
                children[id(p)].append(n)

        def reach(start, step):
            seen, stack = {}, [start]
            while stack:
                for m in step(stack.pop()):
                    if id(m) not in seen:
                        seen[id(m)] = m
                        stack.append(m)
            return seen

        attention_nodes = [n for n in nodes if op(n) == "attention"]
        assert len(attention_nodes) == 2  # one block in each of the RS and SV encoders
        norms = {n._parents[1]: n for n in nodes if op(n) == "layer_norm"}
        for enc in (model.rs, model.sv):
            bounds = [norms[enc.params[f"{enc.prefix}.{name}.gamma"]]
                      for name in [f"block{i}.ln1" for i in range(enc.config.depth)] + ["final_ln"]]
            for i, (ln1, nxt) in enumerate(zip(bounds, bounds[1:])):
                (attn,) = [n for n in attention_nodes if any(p._parents[0] is ln1 for p in n._parents)]
                assert [op(p) for p in attn._parents] == ["matmul"] * 3
                weights = [enc.params[f"{enc.prefix}.block{i}.attn.{w}"] for w in "qkv"]
                assert all(p._parents[0] is ln1 and p._parents[1] is w for p, w in zip(attn._parents, weights))
                block_in, block_out = ln1._parents[0], nxt._parents[0]
                inside = reach(block_in, lambda n: children[id(n)]).keys() & reach(block_out, lambda n: n._parents).keys()
                inside_ops = {op(n) for n in nodes if id(n) in inside}
                assert {"attention", "matmul", "gelu", "__add__"} <= inside_ops
                assert not inside_ops & {"reshape", "transpose"}

    def test_shared_first_gradients_are_clipped_once(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        with enable_grad():
            backward((x + x).sum())
        assert np.array_equal(x.grad, [2.0, 2.0])

        a = Tensor(np.array([0.5, 1.5]), requires_grad=True)
        b = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        c = np.array([3.0, 4.0])
        with enable_grad():
            backward(((a + b) * Tensor(c)).sum())
        assert np.shares_memory(a.grad, b.grad)  # both parents hold the one gradient array
        norm = math.sqrt(sum(_squared_grad_sums({"a": a, "b": b}).values()))
        assert norm == pytest.approx(math.sqrt(2 * 25.0))
        _clip_gradients({"a": a, "b": b}, norm, max_norm=1.0)
        expected = c / math.sqrt(2 * 25.0)
        assert np.allclose(a.grad, expected) and np.allclose(b.grad, expected)


class TestTrainLoop:
    def test_loss_decreases(self):
        model = tiny_model()
        recs = tiny_records(count=32)
        cfg = tiny_train_config(batch_size=8, epochs=8, base_lr=3e-3)
        _, _, _, log = train(model, recs, cfg)
        first = np.mean([m["total"] for m in log[:4]])
        last = np.mean([m["total"] for m in log[-4:]])
        assert last < first

    def test_bank_size_arithmetic(self):
        model = tiny_model()
        recs = tiny_records(count=20)
        cfg = tiny_train_config(batch_size=4, epochs=2)  # 10 steps x 4 = 40 pushes
        _, _, bank, log = train(model, recs, cfg)
        assert len(log) == 10
        assert len(bank) == min(32, 40)

    def test_rerun_is_bit_identical(self):
        cfg = tiny_train_config()
        recs = tiny_records()
        m1, _, _, log1 = train(tiny_model(), recs, cfg)
        m2, _, _, log2 = train(tiny_model(), recs, cfg)
        p1, p2 = m1.parameters(), m2.parameters()
        assert all(np.array_equal(p1[k].values, p2[k].values) for k in p1)
        assert [m["total"] for m in log1] == [m["total"] for m in log2]

    def test_dataset_smaller_than_batch_rejected(self):
        with pytest.raises(ValueError):
            train(tiny_model(), tiny_records(count=2), tiny_train_config(batch_size=4))

    def test_frozen_fourier_matrix_unchanged_by_training(self):
        model = tiny_model()
        b_before = model.loc.B.copy()
        train(model, tiny_records(), tiny_train_config())
        assert np.array_equal(model.loc.B, b_before)


class TestTrainingBytes:
    """sha256 over every parameter, its AdamW m and v (sorted by name), then
    the bank, after a short run; recorded before forward-only passes ran in
    blocks on threads and BLAS kept its threads for graph work. Thread
    counts, blocks and forward-only paths must not move a training byte."""

    @staticmethod
    def digest(model, optimizer, bank):
        h = hashlib.sha256()
        params = model.parameters()
        for name in sorted(params):
            for arr in (params[name].values, optimizer.m[name], optimizer.v[name]):
                h.update(np.ascontiguousarray(arr).tobytes())
        h.update(bank.snapshot().tobytes())
        return h.hexdigest()

    def test_tiny_run(self):
        model, optimizer, bank, log = train(tiny_model(), tiny_records(), tiny_train_config())
        assert len(log) == 10
        assert self.digest(model, optimizer, bank) == "51d554a269c322a904efe2f8fa3aee95186aa08d14e17cf7f19d325c79ad8da0"

    def test_twenty_acceptance_sized_steps(self):
        # The acceptance model and batch size; its GEMMs are large enough
        # for BLAS to thread.
        cfg = DataConfig(count=640, seed=7)
        model = build_model(asdict(cfg), seed=7)
        config = TrainConfig(epochs=2, seed=7, loss=LossConfig(bank_capacity=256))
        model, optimizer, bank, log = train(model, generate_records(cfg), config)
        assert len(log) == 20 and log[-1]["total"] == 9.68891429901123
        assert self.digest(model, optimizer, bank) == "9192eafcb6633874874a96994542734d7186b8c024d7f130b663e881a0f1acd8"


class TestCheckpoint:
    def run_short(self, tmp_path, steps_cfg=None):
        model = tiny_model()
        recs = tiny_records()
        cfg = steps_cfg or tiny_train_config()
        model, opt, bank, _ = train(model, recs, cfg)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model, opt, bank, cfg, step=10)
        return model, opt, bank, cfg, path

    def test_save_load_save_idempotent(self, tmp_path):
        model, opt, bank, cfg, path = self.run_short(tmp_path)
        loaded = load_checkpoint(path)
        path2 = tmp_path / "ckpt2.bin"
        save_checkpoint(path2, loaded["model"], loaded["optimizer"], loaded["bank"], loaded["config"], step=loaded["step"])
        assert path.read_bytes() == path2.read_bytes()

    def test_float64_model_round_trips(self, tmp_path):
        cfg = tiny_train_config()
        model, opt, bank, _ = train(tiny_model(dtype=np.float64), tiny_records(), cfg)
        path, path2 = tmp_path / "ckpt.bin", tmp_path / "ckpt2.bin"
        save_checkpoint(path, model, opt, bank, cfg, step=10)
        loaded = load_checkpoint(path)
        assert loaded["header"]["dtype"] == "float64" and loaded["model"].dtype == np.float64
        assert all(p.dtype == np.float64 for p in loaded["model"].parameters().values())
        assert all(m.dtype == np.float64 for m in [*loaded["optimizer"].m.values(), *loaded["optimizer"].v.values()])
        save_checkpoint(path2, loaded["model"], loaded["optimizer"], loaded["bank"], loaded["config"], step=loaded["step"])
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("key", ["arrays", "model", "adam_t", "dtype"])
    def test_header_missing_key_is_format_error(self, tmp_path, edit_checkpoint_header, key):
        _, _, _, _, path = self.run_short(tmp_path)
        edit_checkpoint_header(path, lambda header: header.pop(key))
        with pytest.raises(FormatError, match=key):
            load_checkpoint(path)

    def test_missing_array_is_format_error(self, tmp_path, edit_checkpoint_header):
        _, _, _, _, path = self.run_short(tmp_path)
        edit_checkpoint_header(path, lambda header: header.update(arrays=[e for e in header["arrays"] if e["name"] != "bank"]))
        with pytest.raises(FormatError, match="bank"):
            load_checkpoint(path)

    def test_loaded_model_matches(self, tmp_path):
        model, opt, bank, cfg, path = self.run_short(tmp_path)
        loaded = load_checkpoint(path)
        p1, p2 = model.parameters(), loaded["model"].parameters()
        assert all(np.array_equal(p1[k].values, p2[k].values) for k in p1)
        assert np.array_equal(loaded["model"].loc.B, model.loc.B)
        assert np.array_equal(loaded["bank"].snapshot(), bank.snapshot())
        assert loaded["step"] == 10 and loaded["optimizer"].t == opt.t

    def test_resume_matches_uninterrupted(self, tmp_path):
        recs = tiny_records()
        cfg = tiny_train_config(epochs=4, eval_every=10)
        # uninterrupted run, 20 steps
        ref, _, _, _ = train(tiny_model(), recs, cfg)
        # interrupted run with periodic checkpoints, then resume from step 10
        train(tiny_model(), recs, cfg, checkpoint_dir=str(tmp_path))
        loaded = load_checkpoint(tmp_path / "ckpt_000010.bin")
        resumed, _, _, _ = train(loaded["model"], recs, loaded["config"],
                                 bank=loaded["bank"], optimizer=loaded["optimizer"],
                                 start_step=loaded["step"])
        p_ref, p_res = ref.parameters(), resumed.parameters()
        assert all(np.array_equal(p_ref[k].values, p_res[k].values) for k in p_ref)

    def test_bad_magic_rejected(self, tmp_path):
        _, _, _, _, path = self.run_short(tmp_path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTACKPT"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_missing_file_is_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="unreadable checkpoint"):
            load_checkpoint(tmp_path / "nope.bin")

    def test_truncation_rejected(self, tmp_path):
        _, _, _, _, path = self.run_short(tmp_path)
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_config_hash_stable(self, tmp_path):
        _, _, _, _, path = self.run_short(tmp_path)
        h1 = load_checkpoint(path)["header"]["config_hash"]
        h2 = load_checkpoint(path)["header"]["config_hash"]
        assert h1 == h2 and len(h1) == 16

    @pytest.mark.parametrize("edit", [
        lambda h: h["train_config"].update(bogus=1),
        lambda h: h["train_config"].update(batch_size="64"),
        lambda h: h["train_config"]["loss"].update(tau="hot"),
        lambda h: h["model"]["rs"].update(bogus=1),
        lambda h: h["model"]["loc"].update(dim="wide"),
        lambda h: h["model"].update(sv=[1, 2]),
        lambda h: h["train_config"].update(epochs="x"),
        lambda h: h["train_config"].update(schedule="bogus"),
    ], ids=["unknown-train-key", "typed-train-key", "typed-loss-key", "unknown-rs-key", "typed-loc-key", "sv-not-object",
            "str-epochs", "unknown-schedule"])
    def test_malformed_config_is_format_error(self, tmp_path, edit_checkpoint_header, edit):
        _, _, _, _, path = self.run_short(tmp_path)
        edit_checkpoint_header(path, edit)
        with pytest.raises(FormatError, match="malformed config"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda h: h["arrays"][1].update(offset="0"), "does not start"),
        (lambda h: h["arrays"][1].update(offset=-4), "does not start"),
        (lambda h: h["arrays"][1].update(offset=0), "does not start"),
        (lambda h: h["arrays"][0].update(shape="4"), "malformed shape"),
        (lambda h: h["arrays"][0].update(shape=[2, -2]), "malformed shape"),
        (lambda h: h["arrays"][0].update(shape=[1]), "does not fit"),
        (lambda h: next(e for e in h["arrays"] if e["name"] == "bank").update(shape=[4, 3]), "does not fit"),
        (lambda h: h.update(arrays=5), "not a list"),
        (lambda h: h.update(adam_t="10"), "adam_t"),
        (lambda h: h.update(step="10"), "step"),
        (lambda h: h.update(step=-1), "step"),
        (lambda h: h.update(config_hash="0" * 16), "config_hash"),
        (lambda h: h["train_config"].update(grad_clip=1.0), "config_hash"),
        (lambda h: h["model"].update(seed=12345), "config_hash"),
    ], ids=["str-offset", "negative-offset", "overlapping-offset", "str-shape", "negative-dim", "wrong-shape",
            "wrong-bank-shape", "arrays-not-list", "str-adam-t", "str-step", "negative-step", "wrong-hash", "edited-config",
            "edited-model-seed"])
    def test_malformed_header_is_format_error(self, tmp_path, edit_checkpoint_header, edit, match):
        _, _, _, _, path = self.run_short(tmp_path)
        edit_checkpoint_header(path, edit)
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_version_is_format_error(self, tmp_path, edit_checkpoint_header, version):
        _, _, _, _, path = self.run_short(tmp_path)
        edit_checkpoint_header(path, lambda header: None, version=version)
        with pytest.raises(FormatError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [0, 9, 19])
    def test_file_shorter_than_preamble_is_format_error(self, tmp_path, cut):
        _, _, _, _, path = self.run_short(tmp_path)
        path.write_bytes(b"GAIRCKPT" + path.read_bytes()[8:cut])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_header_length_past_end_is_format_error(self, tmp_path):
        _, _, _, _, path = self.run_short(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:12] + struct.pack("<Q", len(raw)) + raw[20:])
        with pytest.raises(FormatError, match="corrupt checkpoint header"):
            load_checkpoint(path)

    def test_trailing_bytes_are_format_error(self, tmp_path):
        _, _, _, _, path = self.run_short(tmp_path)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(FormatError, match="after its last array"):
            load_checkpoint(path)

    def test_failed_write_keeps_existing_checkpoint(self, tmp_path, monkeypatch, full_disk):
        model, opt, bank, cfg, path = self.run_short(tmp_path)
        before = path.read_bytes()

        full_disk(training)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, model, opt, bank, cfg, step=11)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]

    def test_save_replaces_existing_checkpoint(self, tmp_path):
        model, opt, bank, cfg, path = self.run_short(tmp_path)
        fresh = tmp_path / "fresh.bin"
        save_checkpoint(fresh, model, opt, bank, cfg, step=12)
        save_checkpoint(path, model, opt, bank, cfg, step=12)
        assert path.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin", "fresh.bin"]
