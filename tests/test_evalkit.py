import math

import numpy as np
import pytest

import gair.evalkit as evalkit
from gair.datagen import _STREAM_PROBE, _stream
from gair.evalkit import (
    HeatmapGrid,
    ProbeHead,
    fit_probe,
    geo_aware_predict,
    heatmap_inr,
    heatmap_loc,
    retrieval_metrics,
    write_heatmap_csv,
    write_heatmap_pgm,
)
from gair.geo import GeoFootprint, GeoPoint, to_local
from gair.inr import FThetaParams, inr_lookup, inr_query_batch, unfold3x3
from gair.tensor import Tensor, backward, cross_entropy, enable_grad, matmul
from gair.training import AdamW, TrainConfig


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestRetrieval:
    def test_identical_sets(self):
        q = np.eye(4)
        m = retrieval_metrics(q, q, np.arange(4))
        assert m["recall@1"] == 1.0 and m["median_rank"] == 1.0

    def test_shuffled_candidates(self):
        q = np.eye(5)
        perm = np.array([3, 0, 4, 1, 2])
        m = retrieval_metrics(q, q[perm], np.argsort(perm))
        assert m["recall@1"] == 1.0 and m["median_rank"] == 1.0

    def test_ties_break_to_lower_index(self):
        q = np.array([[1.0, 0.0]])
        cands = np.array([[1.0, 0.0], [1.0, 0.0]])
        # both candidates tie; candidate 0 must rank first
        m0 = retrieval_metrics(q, cands, np.array([0]), ks=(1,))
        m1 = retrieval_metrics(q, cands, np.array([1]), ks=(1,))
        assert m0["recall@1"] == 1.0 and m1["recall@1"] == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        q = unit_rows(rng, 64, 16)
        c = unit_rows(rng, 64, 16)
        truth = rng.permutation(64)
        m = retrieval_metrics(q, c, truth, ks=(1, 5, 10))
        # exhaustive reference: sort all similarities per query
        ranks = []
        for i in range(64):
            sims = c @ q[i]
            order = sorted(range(64), key=lambda j: (-sims[j], j))
            ranks.append(order.index(truth[i]) + 1)
        ranks = np.array(ranks)
        for k in (1, 5, 10):
            assert m[f"recall@{k}"] == np.mean(ranks <= k)
        assert m["median_rank"] == np.median(ranks)

    def test_ties_match_stable_sort_oracle(self):
        rng = np.random.default_rng(3)
        # Small-integer vectors give many exactly equal similarities.
        q = rng.integers(-1, 2, size=(200, 3)).astype(float)
        c = rng.integers(-1, 2, size=(200, 3)).astype(float)
        truth = rng.permutation(200)
        order = np.argsort(-(q @ c.T), axis=1, kind="stable")
        ranks = np.array([int(np.flatnonzero(order[i] == truth[i])[0]) + 1 for i in range(200)])
        expected = {f"recall@{k}": float(np.mean(ranks <= k)) for k in (1, 5, 10)}
        expected["median_rank"] = float(np.median(ranks))
        assert retrieval_metrics(q, c, truth) == expected

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        q = unit_rows(rng, 16, 8)
        c = unit_rows(rng, 16, 8)
        truth = np.arange(16)
        a = retrieval_metrics(q, c, truth)
        b = retrieval_metrics(3.0 * q, c, truth)
        assert a == b

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            retrieval_metrics(np.eye(2), np.zeros((0, 2)), np.array([0, 1]))

    def test_empty_queries_rejected(self):
        # It used to report NaN for every metric, with two RuntimeWarnings.
        with pytest.raises(ValueError, match="empty query set"):
            retrieval_metrics(np.zeros((0, 2)), np.eye(2), np.zeros(0, dtype=int))

    # Three identical unit rows tie everywhere, so only the tie rule ranks
    # them: truth [0, 1, 2] gives recall@1 1/3. A negative index used to
    # wrap, and [-3, -2, -1] gave 1.0.
    @pytest.mark.parametrize("truth", [[-3, -2, -1], [0, 1, -1]], ids=["all-negative", "one-negative"])
    def test_negative_truth_rejected(self, truth):
        q = np.tile([[1.0, 0.0]], (3, 1))
        assert retrieval_metrics(q, q, np.arange(3), ks=(1,))["recall@1"] == pytest.approx(1 / 3)
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            retrieval_metrics(q, q, np.array(truth), ks=(1,))

    def test_truth_past_the_candidates_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            retrieval_metrics(np.eye(2), np.eye(2), np.array([0, 2]))

    @pytest.mark.parametrize("truth", [np.array([0.0, 1.0]), np.array([True, False])], ids=["float", "bool"])
    def test_non_integer_truth_rejected(self, truth):
        with pytest.raises(ValueError, match="integer"):
            retrieval_metrics(np.eye(2), np.eye(2), truth)

    @pytest.mark.parametrize("truth", [np.array([0]), np.array([0, 1, 1]), np.array([[0, 1]]), np.array(0)],
                             ids=["short", "long", "2-d", "scalar"])
    def test_truth_of_other_shape_rejected(self, truth):
        with pytest.raises(ValueError, match="integer indices"):
            retrieval_metrics(np.eye(2), np.eye(2), truth)


class TestFitProbe:
    def separable_data(self, n=400, d=8, seed=0):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, n)
        x = rng.normal(0, 0.3, size=(n, d))
        x[:, 0] += 2.0 * (y * 2 - 1)
        return x, y

    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    def test_separable_classes(self, kind):
        x, y = self.separable_data()
        _, acc = fit_probe(x, y, kind=kind, seed=0)
        assert acc >= 0.95

    def test_shuffled_labels_near_chance(self):
        x, y = self.separable_data()
        rng = np.random.default_rng(1)
        _, acc = fit_probe(x, rng.permutation(y), kind="linear", seed=0)
        assert abs(acc - 0.5) < 0.1

    def test_embeddings_never_mutated(self):
        x, y = self.separable_data(n=100)
        before = x.tobytes()
        fit_probe(x, y, kind="linear", seed=0)
        assert x.tobytes() == before

    def test_regression_task(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 6))
        w = rng.normal(size=6)
        y = x @ w + 0.01 * rng.normal(size=300)
        _, rmse = fit_probe(x, y, kind="linear", task="regression", seed=0)
        assert rmse < 0.2

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_probe(np.zeros((4, 2)), np.zeros(5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fit_probe(np.zeros((4, 2)), np.zeros(4, dtype=int), kind="quadratic")

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_rejected(self, n):
        # With one sample it trained on zero rows and reported the untrained
        # head's accuracy; with none it failed inside numpy.
        with pytest.raises(ValueError, match="at least 2 samples"):
            fit_probe(np.zeros((n, 2)), np.zeros(n, dtype=int), kind="linear", seed=0)

    def test_unknown_task_rejected(self):
        # It used to train a regression and report its RMSE as the metric.
        x, y = self.separable_data(n=40)
        with pytest.raises(ValueError, match="classfication"):
            fit_probe(x, y, task="classfication")

    @pytest.mark.parametrize("labels", [[-1, 1], [0.0, 1.0]], ids=["negative", "float"])
    def test_classification_labels_other_than_non_negative_integers_rejected(self, labels):
        # With labels {-1, 1}, every -1 used to train as class 1.
        x, y = self.separable_data(n=40)
        with pytest.raises(ValueError, match="non-negative integers"):
            fit_probe(x, np.asarray(labels)[y], kind="linear", seed=0)


def graph_probe(embeddings, labels, kind, task, seed=0):
    """`fit_probe` as the autodiff graph ran it: the head's logits, then
    `cross_entropy` or the mean squared error, `backward` and AdamW, with
    the recipe `evalkit` holds."""
    rng = _stream(seed, _STREAM_PROBE)
    n = len(embeddings)
    n_val = max(1, int(n * evalkit._PROBE_VAL_FRACTION))
    x_tr, x_va = embeddings[: n - n_val], embeddings[n - n_val :]
    y_tr, y_va = labels[: n - n_val], labels[n - n_val :]
    d_out = int(np.max(labels)) + 1 if task == "classification" else 1
    head = ProbeHead.init(kind, embeddings.shape[1], d_out, rng)
    p = head.params

    def logits(x):
        if kind == "linear":
            return matmul(x, p["w"]) + p["b"]
        return matmul((matmul(x, p["w1"]) + p["b1"]).gelu(), p["w2"]) + p["b2"]

    optimizer = AdamW(p, TrainConfig(weight_decay=0.0))
    for _ in range(evalkit._PROBE_EPOCHS):
        perm = rng.permutation(len(x_tr))
        for s in range(0, len(x_tr), evalkit._PROBE_BATCH):
            idx = perm[s : s + evalkit._PROBE_BATCH]
            with enable_grad():
                out = logits(Tensor(x_tr[idx].astype(np.float64)))
                if task == "classification":
                    loss = cross_entropy(out, y_tr[idx])
                else:
                    diff = out.reshape(len(idx)) + Tensor(-y_tr[idx].astype(np.float64))
                    loss = (diff * diff).sum().scale(1 / len(idx))
            optimizer.zero_grad()
            backward(loss)
            optimizer.step(evalkit._PROBE_LR)
    pred = logits(Tensor(x_va)).values
    if task == "classification":
        return head, float(np.mean(np.argmax(pred, axis=1) == y_va))
    return head, float(np.sqrt(np.mean((pred.reshape(-1) - y_va) ** 2)))


def probe_data(task, n=300, d=12, seed=4):
    """float32 embeddings, as the encoders give them, and labels that
    depend on them: 3 classes, or a noisy linear target."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)).astype(np.float32)
    if task == "classification":
        return x, np.digitize(x[:, 0] + 0.5 * x[:, 1], [-0.5, 0.5])
    return x, x[:, :3].astype(np.float64) @ [1.0, -2.0, 0.5] + 0.1 * rng.normal(size=n)


PROBE_CASES = [(kind, task) for kind in ("linear", "nonlinear") for task in ("classification", "regression")]


class TestProbeGradients:
    @pytest.mark.parametrize("kind, task", PROBE_CASES)
    def test_matches_the_graph_bit_for_bit(self, monkeypatch, kind, task):
        monkeypatch.setattr(evalkit, "_PROBE_EPOCHS", 3)
        x, y = probe_data(task)
        head, metric = fit_probe(x, y, kind=kind, task=task, seed=0)
        ref, ref_metric = graph_probe(x, y, kind, task, seed=0)
        assert sorted(head.params) == sorted(ref.params)
        for name, t in head.params.items():
            assert np.array_equal(t.values, ref.params[name].values), name
        assert metric == ref_metric

    @pytest.mark.parametrize("kind, task", PROBE_CASES)
    def test_fit_records_no_graph(self, monkeypatch, kind, task):
        def no_graph(*args):
            raise AssertionError("fit_probe built an autodiff node")

        monkeypatch.setattr(evalkit, "_PROBE_EPOCHS", 2)
        monkeypatch.setattr(Tensor, "_make", staticmethod(no_graph))
        x, y = probe_data(task)
        _, metric = fit_probe(x, y, kind=kind, task=task, seed=0)
        assert math.isfinite(metric)


class TestGeoAwarePredict:
    def test_uniform_prior_preserves_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            img = rng.normal(size=6)
            out = geo_aware_predict(img, np.full(6, math.log(1 / 6)))
            assert out["argmax"] == int(np.argmax(img))

    def test_peaked_prior_dominates_uniform_image(self):
        loc = np.full(5, -10.0)
        loc[3] = 0.0
        out = geo_aware_predict(np.zeros(5), loc)
        assert out["argmax"] == 3

    def test_matches_product_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            li = np.log(rng.dirichlet(np.ones(7)))
            ll = np.log(rng.dirichlet(np.ones(7)))
            out = geo_aware_predict(li, ll)
            ref = np.exp(li) * np.exp(ll)
            ref = ref / ref.sum()
            assert np.max(np.abs(out["probs"] - ref)) < 1e-10

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(2)
        li, ll = rng.normal(size=4), rng.normal(size=4)
        a = geo_aware_predict(li, ll)
        b = geo_aware_predict(li + 5.0, ll - 3.0)
        assert a["argmax"] == b["argmax"]
        assert np.allclose(a["probs"], b["probs"], atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            geo_aware_predict(np.zeros(3), np.zeros(4))


class TestGeoRegression:
    """Regression over the concatenated image and location embeddings is a
    regression probe on their concatenation."""

    def test_concat_head_beats_image_only(self):
        # planted target depends on both embeddings; paired probes, same seed
        rng = np.random.default_rng(3)
        n, d = 400, 4
        img = rng.normal(size=(n, d))
        loc = rng.normal(size=(n, d))
        y = img[:, 0] + 2.0 * loc[:, 1] + 0.05 * rng.normal(size=n)
        _, rmse_concat = fit_probe(np.concatenate([img, loc], axis=1), y, task="regression", seed=0)
        _, rmse_img = fit_probe(img, y, task="regression", seed=0)
        assert rmse_concat <= rmse_img


class TestHeatmaps:
    def test_grid_geometry(self):
        grid = HeatmapGrid(origin=GeoPoint(0.1, 0.2), resolution=0.01, values=np.zeros((3, 4)))
        c = grid.cell_center(1, 2)
        assert c.lon == pytest.approx(0.12) and c.lat == pytest.approx(0.19)

    def test_argmax_cell(self):
        vals = np.zeros((3, 3))
        vals[2, 1] = 1.0
        grid = HeatmapGrid(origin=GeoPoint(0, 0), resolution=0.01, values=vals)
        assert grid.argmax_cell() == (2, 1)

    def test_heatmap_loc_constant_encoder(self):
        class ConstEncoder:
            def encode(self, pts):
                v = np.zeros((len(pts), 4))
                v[:, 0] = 1.0
                return Tensor(v)

        grid = heatmap_loc(np.array([1.0, 0, 0, 0]), ConstEncoder(), GeoPoint(0.1, 0.5), 0.001, 5, 7)
        assert grid.values.shape == (5, 7)
        assert np.allclose(grid.values, 1.0)
        # origin is the NW cell center
        assert grid.origin.lon == pytest.approx(0.1 - 3 * 0.001)
        assert grid.origin.lat == pytest.approx(0.5 + 2 * 0.001)

    def test_heatmap_loc_bad_resolution(self):
        class E:
            def encode(self, pts):
                return Tensor(np.ones((len(pts), 1)))

        with pytest.raises(ValueError):
            heatmap_loc(np.ones(1), E(), GeoPoint(0, 0), 0.0, 3, 3)

    @pytest.mark.parametrize("resolution, rows, cols", [(math.nan, 3, 3), (math.inf, 3, 3), (0.001, -2, 3),
                                                        (0.001, 3, 0)])
    def test_heatmap_loc_bad_mesh(self, resolution, rows, cols):
        class E:
            def encode(self, pts):
                return Tensor(np.ones((len(pts), 1)))

        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            heatmap_loc(np.ones(1), E(), GeoPoint(0, 0), resolution, rows, cols)

    @pytest.mark.parametrize("resolution", [0.0, -0.001, math.nan, math.inf])
    def test_heatmap_inr_bad_resolution(self, resolution):
        um = unfold3x3(Tensor(np.ones((1, 4, 4, 2))))
        fp = GeoFootprint(0.0, 0.001, 0.0, 0.001)
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            heatmap_inr(np.ones(2), FThetaParams.passthrough(2), um, fp, resolution)

    def test_heatmap_inr_constant_map(self):
        d = 4
        c = np.array([1.0, 0.0, 0.0, 0.0])
        grid_latents = np.tile(c, (1, 4, 4, 1))
        um = unfold3x3(Tensor(grid_latents))
        fp = GeoFootprint(0.0, 0.001, 0.0, 0.001)
        grid = heatmap_inr(c, FThetaParams.passthrough(d), um, fp, resolution=0.0002)
        assert np.allclose(grid.values, 1.0, atol=1e-12)
        assert np.all(np.abs(grid.values) <= 1.0 + 1e-12)

    def test_heatmap_inr_matches_per_query_lookup(self):
        """Each cell equals a one-query lookup on the unfolded map, and
        inr_lookup on the feature map itself, which blends before decoding."""
        rng = np.random.default_rng(1)
        d = 6
        fm = Tensor(rng.normal(size=(1, 4, 4, d)).astype(np.float32))
        um = unfold3x3(fm)
        ftheta = FThetaParams.init(d, rng, dtype=np.float32)
        sv = unit_rows(rng, 1, d)[0]
        fp = GeoFootprint(0.1, 0.104, 0.2, 0.204)
        grid = heatmap_inr(sv, ftheta, um, fp, resolution=0.0005)
        rows, cols = grid.values.shape
        assert rows * cols > 30
        for row in range(rows):
            for col in range(cols):
                q = to_local(fp, grid.cell_center(row, col))
                emb = inr_query_batch(ftheta, um, np.array([[q.u, q.v]])).values[0]
                assert abs(float(emb @ sv) - grid.values[row, col]) < 1e-5
                emb = inr_lookup(ftheta, fm, np.array([[q.u, q.v]])).values[0]
                assert abs(float(emb @ sv) - grid.values[row, col]) < 1e-5

    def test_heatmap_inr_peak_at_matching_cell(self):
        rng = np.random.default_rng(0)
        d = 8
        latents = unit_rows(rng, 16, d).reshape(1, 4, 4, d)
        um = unfold3x3(Tensor(latents))
        fp = GeoFootprint(0.0, 0.004, 0.0, 0.004)
        target = latents[0, 1, 2]
        grid = heatmap_inr(target, FThetaParams.passthrough(d), um, fp, resolution=0.0002)
        row, col = grid.argmax_cell()
        peak = grid.cell_center(row, col)
        # patch (1, 2) center in geographic coordinates
        want_lon = fp.lon_min + (2 + 0.5) / 4 * 0.004
        want_lat = fp.lat_max - (1 + 0.5) / 4 * 0.004
        assert abs(peak.lon - want_lon) <= 3e-4 and abs(peak.lat - want_lat) <= 3e-4


class TestHeatmapFiles:
    def grid(self):
        vals = np.linspace(-1, 1, 12).reshape(3, 4)
        return HeatmapGrid(origin=GeoPoint(0, 0), resolution=0.01, values=vals)

    def test_csv_roundtrip(self, tmp_path):
        grid = self.grid()
        path = tmp_path / "h.csv"
        write_heatmap_csv(grid, path)
        back = np.array([[float(x) for x in line.split(",")] for line in path.read_text().splitlines()])
        assert np.allclose(back, grid.values, atol=1e-8)

    def test_pgm_affine_mapping(self, tmp_path):
        grid = self.grid()
        path = tmp_path / "h.pgm"
        write_heatmap_pgm(grid, path)
        raw = path.read_bytes()
        header = f"P5\n4 3\n255\n".encode()
        assert raw.startswith(header)
        pixels = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(3, 4)
        expected = np.clip(np.round((grid.values + 1.0) * 127.5), 0, 255)
        assert np.array_equal(pixels, expected.astype(np.uint8))
        # extremes map to the ends of the byte range
        assert pixels[0, 0] == 0 and pixels[2, 3] == 255
