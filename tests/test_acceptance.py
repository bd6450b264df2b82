"""End-to-end release checks, one test per criterion.

Criteria 1-3 and 7-8 are property checks with explicit tolerances; criteria
4-6 share a single session-scoped pretraining run on the planted-signal
dataset (2000 records, seed 7, default hyperparameters) and verify that the
learned alignment is real: cross-modal retrieval beats chance by an order
of magnitude, similarity heatmaps peak at the true location, and a linear
probe on the pretrained encoder beats the same probe on a random encoder.

Each test records a one-line verdict; see conftest.py for the summary hook.
"""

import math
import os
import time

import numpy as np
import pytest

from dataclasses import asdict

from gair.cli import build_model
from gair.datagen import DataConfig, generate_records, make_batch, read_dataset, write_dataset
from gair.errors import FormatError
from gair.evalkit import fit_probe, geo_aware_predict, heatmap_inr, heatmap_loc, retrieval_metrics
from gair.geo import GeoPoint
from gair.gradaudit import run_audit
from gair.inr import FThetaParams, bilinear_oracle, ensemble_weights, f_theta, inr_query_batch, unfold3x3
from gair.objectives import MemoryBank, incl_loss, secl_loss
from gair.tensor import Tensor
from gair.training import TrainConfig, load_checkpoint, save_checkpoint, train

DEG = math.pi / 180.0


def embed_held_out(model, records, indices, rng):
    """Localized RS embeddings, pooled SV embeddings, and class labels."""
    z_all, g_all, cls = [], [], []
    for s in range(0, len(indices), 64):
        b = make_batch(records, indices[s:s + 64], rng, augment=False)
        z_all.append(model.localized_rs(b.rs, b.local_uv).values)
        g_all.append(model.sv.encode_pooled(b.sv).values)
        cls.append(b.label_class)
    return np.concatenate(z_all), np.concatenate(g_all), np.concatenate(cls)


@pytest.fixture(scope="session")
def pretrained():
    """The shared end-to-end run: 2000 triples, default model and training."""
    cfg = DataConfig(count=2000, seed=7)
    records = generate_records(cfg)
    model = build_model(asdict(cfg), seed=7)
    t0 = time.time()
    model, _, _, _ = train(model, records[:1744], TrainConfig())
    elapsed = time.time() - t0
    random_init = build_model(asdict(cfg), seed=99)
    return {
        "cfg": cfg,
        "records": records,
        "hold": records[1744:],
        "model": model,
        "random": random_init,
        "train_seconds": elapsed,
    }


class TestCriterion1:
    def test_gradient_audit(self, record_criterion):
        t0 = time.time()
        results = run_audit(tolerance=1e-4)
        elapsed = time.time() - t0
        worst = max(r.max_relative_error for r in results)
        ok = all(r.passed for r in results) and elapsed <= 120.0
        record_criterion(1, "gradient audit", ok,
                         f"{len(results)} ops, worst rel err {worst:.2e} <= 1e-4, {elapsed:.0f}s <= 120s")
        assert ok


class TestCriterion2:
    def test_inr_properties(self, record_criterion):
        rng = np.random.default_rng(0)

        # Partition of unity over 1e4 random in-hull queries.
        P = 8
        q = rng.uniform(-(1 - 1 / P), 1 - 1 / P, (10_000, 2))
        sums = ensemble_weights(q, P).weights.sum(axis=1)
        unity_err = float(np.max(np.abs(sums - 1.0)))

        # Pass-through decoder reduces exactly to bilinear interpolation.
        bilin_err = 0.0
        for P in (2, 4, 8):
            grid = rng.normal(size=(P, P, 6))
            queries = rng.uniform(-(1 - 1 / P), 1 - 1 / P, (200, 2))
            out = inr_query_batch(FThetaParams.passthrough(6), unfold3x3(Tensor(grid[None])),
                                  queries, normalize=False)
            bilin_err = max(bilin_err, float(np.max(np.abs(out.values - bilinear_oracle(grid, queries)))))

        # Continuity across cell boundaries, with a discontinuous control.
        P, D = 4, 8
        unfolded = unfold3x3(Tensor(rng.normal(size=(1, P, P, D))))
        params = FThetaParams.init(D, rng, dtype=np.float64)
        eps = 1e-6
        jump = 0.0
        for boundary in (-0.5, 0.0, 0.5):
            for v in (-0.6, 0.1, 0.55):
                a = inr_query_batch(params, unfolded, np.array([[boundary - eps, v]])).values
                b = inr_query_batch(params, unfolded, np.array([[boundary + eps, v]])).values
                jump = max(jump, float(np.max(np.abs(a - b))))

        def nearest_cell_only(q):
            # control: decode only the highest-weight corner, no blending
            geom = ensemble_weights(np.array([q]), P)
            k = int(np.argmax(geom.weights[0]))
            z = unfolded.values[0, geom.rows[0, k], geom.cols[0, k]][None]
            out = f_theta(params, Tensor(z)).values
            return out / np.linalg.norm(out)

        control = 0.0
        for boundary in (-0.5, 0.0, 0.5):
            a = nearest_cell_only([boundary - eps, 0.1])
            b = nearest_cell_only([boundary + eps, 0.1])
            control = max(control, float(np.max(np.abs(a - b))))

        ok = unity_err <= 1e-12 and bilin_err <= 1e-6 and jump < 1e-4 and control > 1e-4
        record_criterion(2, "inr oracles", ok,
                         f"unity {unity_err:.1e} <= 1e-12, bilinear {bilin_err:.1e} <= 1e-6, "
                         f"jump {jump:.1e} < 1e-4 < control {control:.1e}")
        assert ok


class TestCriterion3:
    def test_loss_closed_forms(self, record_criterion):
        rng = np.random.default_rng(0)
        checks = []

        one = Tensor(np.ones((1, 4)) / 2.0)
        checks.append(abs(float(incl_loss(one, one, 0.07).values)) <= 1e-12)

        for n in (2, 4, 8):
            e = np.tile(rng.normal(size=4), (n, 1))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            t = Tensor(e)
            checks.append(abs(float(incl_loss(t, t, 0.07).values) - math.log(n)) <= 1e-9)

        for tau in (0.07, 0.5, 1.0):
            for n in (2, 4, 8):
                e = Tensor(np.eye(n, 16))
                expected = math.log(1.0 + (n - 1) * math.exp(-1.0 / tau))
                checks.append(abs(float(incl_loss(e, e, tau).values) - expected) <= 1e-6)

        def secl_oracle(e, z, g, bank_rows, tau):
            cand = np.concatenate([e, bank_rows]) if len(bank_rows) else e
            total = 0.0
            for anchor in (z, g):
                logits = anchor @ cand.T / tau
                logits -= logits.max(axis=1, keepdims=True)
                p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
                total += -np.mean(np.log(p[np.arange(len(e)), np.arange(len(e))]))
            return total / 2.0

        def unit(rows, d=16):
            m = rng.normal(size=(rows, d))
            return m / np.linalg.norm(m, axis=1, keepdims=True)

        for size in (0, 8, 64):
            e, z, g = unit(8), unit(8), unit(8)
            bank = MemoryBank(capacity=128)
            if size:
                bank.push(unit(size))
            got = float(secl_loss(Tensor(e), Tensor(z), Tensor(g), bank, 0.07).values)
            checks.append(abs(got - secl_oracle(e, z, g, bank.snapshot(), 0.07)) <= 1e-6)

        ok = all(checks)
        record_criterion(3, "loss closed forms", ok, f"{sum(checks)}/{len(checks)} identities hold")
        assert ok


class TestCriterion4:
    def test_planted_signal_retrieval(self, pretrained, record_criterion):
        rng = np.random.default_rng(0)
        hold_idx = list(range(len(pretrained["hold"])))
        z, g, _ = embed_held_out(pretrained["model"], pretrained["hold"], hold_idx, rng)
        m = retrieval_metrics(g, z, np.arange(len(z)))
        z_r, g_r, _ = embed_held_out(pretrained["random"], pretrained["hold"], hold_idx, rng)
        m_r = retrieval_metrics(g_r, z_r, np.arange(len(z_r)))
        chance = 1.0 / len(z)
        ok = (m["recall@1"] >= 0.04 and m["recall@10"] >= 0.15
              and m_r["recall@1"] <= 2 * chance
              and pretrained["train_seconds"] <= 900.0)
        record_criterion(4, "planted-signal retrieval", ok,
                         f"recall@1 {m['recall@1']:.3f} >= 0.04, recall@10 {m['recall@10']:.3f} >= 0.15, "
                         f"random {m_r['recall@1']:.4f} <= {2 * chance:.4f}, "
                         f"train {pretrained['train_seconds']:.0f}s <= 900s")
        assert ok


class TestCriterion5:
    def test_heatmap_geo_alignment(self, pretrained, record_criterion):
        model = pretrained["model"]
        hold = pretrained["hold"]
        rng = np.random.default_rng(0)
        ok_loc = ok_inr = 0
        for i in range(50):
            r = hold[i]
            b = make_batch(hold, [i], rng, augment=False)
            sv_emb = model.sv.encode_pooled(b.sv).values[0]
            center = GeoPoint((r.footprint.lon_min + r.footprint.lon_max) / 2,
                              (r.footprint.lat_min + r.footprint.lat_max) / 2)
            grid = heatmap_loc(sv_emb, model.loc, center, 0.01 * DEG, 9, 9)
            peak = grid.cell_center(*grid.argmax_cell())
            if max(abs(peak.lon - r.lon), abs(peak.lat - r.lat)) <= 0.02 * DEG + 1e-12:
                ok_loc += 1
            unfolded = unfold3x3(model.rs.encode_feature_maps(b.rs))
            grid = heatmap_inr(sv_emb, model.ftheta, unfolded, r.footprint, 0.0025 * DEG)
            peak = grid.cell_center(*grid.argmax_cell())
            if max(abs(peak.lon - r.lon), abs(peak.lat - r.lat)) <= 0.02 * DEG + 1e-12:
                ok_inr += 1
        ok = ok_loc >= 40 and ok_inr >= 35
        record_criterion(5, "heatmap geo-alignment", ok,
                         f"loc {ok_loc}/50 >= 40 (2 cells at 0.01 deg), inr {ok_inr}/50 >= 35")
        assert ok

    def test_heatmap_determinism(self, pretrained):
        model = pretrained["model"]
        r = pretrained["hold"][0]
        rng = np.random.default_rng(0)
        b = make_batch(pretrained["hold"], [0], rng, augment=False)
        sv_emb = model.sv.encode_pooled(b.sv).values[0]
        center = GeoPoint(r.lon, r.lat)
        a = heatmap_loc(sv_emb, model.loc, center, 0.01 * DEG, 5, 5)
        c = heatmap_loc(sv_emb, model.loc, center, 0.01 * DEG, 5, 5)
        assert np.array_equal(a.values, c.values)


class TestCriterion6:
    def test_linear_probe_transfer(self, pretrained, record_criterion):
        # Probe budget: 1024 fresh records from the same world, never used in
        # pretraining, identical fit for both encoders (same seed and schedule).
        rng = np.random.default_rng(0)
        big = generate_records(DataConfig(count=3072, seed=7))
        idx = list(range(2048, 3072))
        _, g_t, cls = embed_held_out(pretrained["model"], big, idx, rng)
        _, g_r, _ = embed_held_out(pretrained["random"], big, idx, rng)
        _, acc_t = fit_probe(g_t, cls, kind="linear", seed=0)
        _, acc_r = fit_probe(g_r, cls, kind="linear", seed=0)
        gap = (acc_t - acc_r) * 100.0
        ok = gap >= 10.0
        record_criterion(6, "linear probe transfer", ok,
                         f"pretrained {acc_t:.3f} vs random-init {acc_r:.3f}, gap {gap:.1f} pts >= 10")
        assert ok


class TestCriterion7:
    def test_fusion_exactness(self, record_criterion):
        rng = np.random.default_rng(0)
        argmax_ok = True
        prob_err = 0.0
        for _ in range(10_000):
            k = rng.integers(2, 12)
            log_img = rng.normal(scale=3.0, size=k)
            log_loc = rng.normal(scale=3.0, size=k)
            fused = geo_aware_predict(log_img, log_loc)
            uniform = geo_aware_predict(log_img, np.full(k, float(log_loc[0])))
            argmax_ok &= uniform["argmax"] == int(np.argmax(log_img))
            # independent oracle: exponentiate, multiply, renormalize
            p = np.exp(log_img - log_img.max()) * np.exp(log_loc - log_loc.max())
            p /= p.sum()
            prob_err = max(prob_err, float(np.max(np.abs(fused["probs"] - p))))
        ok = argmax_ok and prob_err <= 1e-10
        record_criterion(7, "geo-aware fusion", ok,
                         f"uniform-prior argmax exact on 1e4 cases, prob err {prob_err:.1e} <= 1e-10")
        assert ok


class TestCriterion8:
    def test_determinism_and_persistence(self, tmp_path, record_criterion):
        checks = []
        cfg = DataConfig(count=10, seed=7, rs_size=8, sv_size=8, temporal_variants=2)
        records = generate_records(cfg)

        # Same-seed regeneration and dataset round-trip are byte-exact.
        for name in ("a", "b"):
            write_dataset(records, tmp_path / name, cfg)
        blob_a = (tmp_path / "a" / "data.blob").read_bytes()
        checks.append(blob_a == (tmp_path / "b" / "data.blob").read_bytes())
        loaded, _ = read_dataset(tmp_path / "a")
        write_dataset(loaded, tmp_path / "c", cfg)
        checks.append(blob_a == (tmp_path / "c" / "data.blob").read_bytes())

        # Same-seed pretraining reruns are bit-identical; resume matches the
        # uninterrupted run; checkpoint round-trips byte-exactly.
        tc = TrainConfig(batch_size=4, epochs=2, seed=7, eval_every=2)

        def run(out, resume_from=None):
            kw = {}
            if resume_from:
                state = load_checkpoint(resume_from)
                model = state["model"]
                kw = {"bank": state["bank"], "optimizer": state["optimizer"],
                      "start_step": state["step"]}
            else:
                model = build_model(asdict(cfg), seed=7, dim=16, rff_sigma=10.0)
            os.makedirs(out, exist_ok=True)
            model, opt, bank, _ = train(model, records, tc, checkpoint_dir=str(out), **kw)
            save_checkpoint(os.path.join(out, "final.bin"), model, opt, bank, tc, step=4)
            return open(os.path.join(out, "final.bin"), "rb").read()

        full_a = run(tmp_path / "r1")
        full_b = run(tmp_path / "r2")
        checks.append(full_a == full_b)
        resumed = run(tmp_path / "r3", resume_from=str(tmp_path / "r1" / "ckpt_000002.bin"))
        checks.append(resumed == full_a)

        # load -> save round-trip is byte-identical
        state = load_checkpoint(tmp_path / "r1" / "final.bin")
        save_checkpoint(tmp_path / "resaved.bin", state["model"], state["optimizer"],
                        state["bank"], state["config"], step=state["step"])
        checks.append(full_a == (tmp_path / "resaved.bin").read_bytes())

        # Corruption produces format errors, never crashes.
        bad = bytearray(full_a)
        bad[:8] = b"BADMAGIC"
        (tmp_path / "bad.bin").write_bytes(bytes(bad))
        try:
            load_checkpoint(tmp_path / "bad.bin")
            checks.append(False)
        except FormatError:
            checks.append(True)
        (tmp_path / "trunc.bin").write_bytes(full_a[: len(full_a) // 2])
        try:
            load_checkpoint(tmp_path / "trunc.bin")
            checks.append(False)
        except FormatError:
            checks.append(True)
        blob = tmp_path / "a" / "data.blob"
        blob.write_bytes(b"XXXXXXXX" + blob.read_bytes()[8:])
        try:
            read_dataset(tmp_path / "a")
            checks.append(False)
        except FormatError:
            checks.append(True)

        ok = all(checks)
        record_criterion(8, "determinism and persistence", ok,
                         f"{sum(checks)}/{len(checks)} byte-exactness and format-error checks hold")
        assert ok
