"""The benchmark's three workloads, each a closed loop in one process.

Every workload builds its inputs from the seed with gair.datagen at the
acceptance configuration (2000 records, dim-64 model, batch 64), times its
operations back to back, and checks their outputs. The gair package is
driven only through its public functions, always looked up on their module
at call time so that the traced run's wrappers see every call.

Each operation reports a primary and a secondary latency. NAMED and
DESIGN.md say what they are on each workload, and give each its
workload-specific name, such as train_step_ms_p50.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from gair import datagen, evalkit, inr, objectives, training
from gair.cli import build_model
from gair.geo import GeoPoint, to_local

DEG = math.pi / 180.0
RECORDS = 2000
ACCEPTANCE_STEPS = (RECORDS // 64) * 30  # 930 steps: 31 per epoch, 30 epochs
HELDOUT = 64
INR_RESOLUTION = 0.0005 * DEG  # 35 x 36 queries over one footprint
LOC_RESOLUTION = 0.001 * DEG
LOC_CELLS = 100  # a 100 x 100 mesh, 10^4 location queries
# Float tolerance for two computations of one cosine similarity whose
# summation order may differ; loose enough for a float32 model.
SIM_ATOL = 1e-5


@dataclass
class Measurement:
    """Timings and outcomes of one workload run."""

    setup_s: list = field(default_factory=list)
    primary_ms: list = field(default_factory=list)
    secondary_ms: list = field(default_factory=list)
    traced_primary_ms: list = field(default_factory=list)
    datagen_s: list = field(default_factory=list)  # evaluate: generate_records + write_dataset
    items: int = 0
    items_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, traced, primary_s, secondary_s, items, items_s):
        """Record one operation, which completed `items` work items in
        `items_s` seconds; traced operations only feed the overhead ratio."""
        if traced:
            self.traced_primary_ms.append(primary_s * 1e3)
            return
        self.primary_ms.append(primary_s * 1e3)
        self.secondary_ms.append(secondary_s * 1e3)
        self.items += items
        self.items_s += items_s

    def check(self, what, problems):
        """Count one operation, or one whole-run check, as attempted; it
        failed when there are problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: " + "; ".join(problems))


def timed_setup(m: Measurement, repeats: int, setup):
    """Run `setup` `repeats` times, timing each; keep the last state."""
    state = None
    for _ in range(repeats):
        state = None  # release the previous state before building the next
        t0 = time.perf_counter()
        state = setup()
        m.setup_s.append(time.perf_counter() - t0)
    return state


def closed_loop(m: Measurement, seconds, min_ops, op, recorder):
    """Run op(i, traced) back to back until `seconds` have passed and at least
    `min_ops` ran. With a recorder, every odd operation is traced. `op`
    returns a callable that checks the operation's outputs; it runs after
    the operation, outside the timed and traced region."""
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        traced = recorder is not None and i % 2 == 1
        try:
            with recorder.recording(i) if traced else nullcontext():
                checks = op(i, traced)
            problems = checks()
        except Exception:  # a failed operation is counted and the loop goes on
            problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        m.check(f"op {i}", problems)
        i += 1


def _data_config(seed):
    return datagen.DataConfig(count=RECORDS, seed=seed)


def _batches(records, batch_size, seed):
    """Endless augmented batches, one seeded permutation per epoch."""
    rng = np.random.default_rng(seed)
    while True:
        perm = rng.permutation(len(records))
        for s in range(0, len(records) - batch_size + 1, batch_size):
            yield datagen.make_batch(records, perm[s : s + batch_size], rng, augment=True)


# -- pretrain -------------------------------------------------------------------

PRETRAIN_WARMUP_STEPS = 2


def run_pretrain(seed, seconds, recorder, workdir) -> Measurement:
    """Steady-state pretraining: train_step on make_batch batches with the
    memory bank full, as in steps 64..930 of the acceptance run."""
    m = Measurement()
    data_cfg = _data_config(seed)

    def setup():
        records = datagen.generate_records(data_cfg)
        model = build_model(asdict(data_cfg), seed=seed)
        cfg = training.TrainConfig(seed=seed)
        optimizer = training.AdamW(model.parameters(), cfg)
        bank = objectives.MemoryBank(cfg.loss.bank_capacity)
        batches = _batches(records, cfg.batch_size, seed)
        while len(bank) < bank.capacity:
            bank.push(model.loc.encode(next(batches).lonlat).values.astype(np.float64))
        step = bank.capacity // cfg.batch_size
        losses = []
        for _ in range(PRETRAIN_WARMUP_STEPS):
            lr = training.lr_at(cfg, step, ACCEPTANCE_STEPS)
            losses.append(training.train_step(model, next(batches), bank, optimizer, cfg, lr)["total"])
            step += 1
        return model, cfg, optimizer, bank, batches, step, losses

    model, cfg, optimizer, bank, batches, first_step, losses = timed_setup(m, 3, setup)

    def op(i, traced):
        lr = training.lr_at(cfg, min(first_step + i, ACCEPTANCE_STEPS), ACCEPTANCE_STEPS)
        t0 = time.perf_counter()
        batch = next(batches)
        t1 = time.perf_counter()
        out = training.train_step(model, batch, bank, optimizer, cfg, lr)
        t2 = time.perf_counter()
        m.add(traced, t2 - t1, t2 - t0, cfg.batch_size, t2 - t0)
        losses.append(out["total"])
        return lambda: [f"non-finite {k} loss" for k in ("incl", "secl", "total") if not math.isfinite(out[k])]

    closed_loop(m, seconds, 20, op, recorder)
    m.check("loss decreased", [] if losses[-1] < losses[0] else [f"last total loss {losses[-1]:.4f} >= first {losses[0]:.4f}"])
    m.check("bank at capacity", [] if len(bank) == bank.capacity else [f"bank holds {len(bank)} of {bank.capacity} rows"])
    return m


# -- evaluate -------------------------------------------------------------------


def _embed(model, records, batch_size=64):
    """Localized RS (one INR query per feature map) and pooled SV embeddings,
    without augmentation."""
    rng = np.random.default_rng(0)  # unused: augmentation off
    z, g = [], []
    for s in range(0, len(records), batch_size):
        chunk = datagen.make_batch(records, range(s, min(s + batch_size, len(records))), rng, augment=False)
        z.append(model.localized_rs(chunk.rs, chunk.local_uv).values)
        g.append(model.sv.encode_pooled(chunk.sv).values)
    return np.concatenate(z), np.concatenate(g)


def brute_force_retrieval(queries, candidates, ks=(1, 5, 10)) -> dict:
    """retrieval_metrics for truth i -> i, by counting instead of sorting: a
    candidate outranks the true one when it is more similar, or equally
    similar at a lower index."""
    sims = queries @ candidates.T
    ranks = []
    for i, row in enumerate(sims):
        ranks.append(1 + int(np.sum(row > row[i])) + int(np.sum(row[:i] == row[i])))
    ranks = np.array(ranks)
    out = {f"recall@{k}": float(np.mean(ranks <= k)) for k in ks}
    out["median_rank"] = float(np.median(ranks))
    return out


def _unit_norm_problems(what, x):
    worst = float(np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)))
    return [f"{what} rows off unit norm by {worst:.1e}"] if worst > 1e-4 else []


def run_evaluate(seed, seconds, recorder, workdir) -> Measurement:
    """gen-data, then an evaluate over all 2000 records with a linear probe,
    forward only. This is a stress size, larger than `gair evaluate`'s
    default 256-record holdout without a probe."""
    m = Measurement()
    data_cfg = _data_config(seed)
    dataset = workdir / "dataset"
    checkpoint = workdir / "checkpoint.bin"
    resaved = workdir / "resaved.bin"

    def setup():
        model = build_model(asdict(data_cfg), seed=seed)
        cfg = training.TrainConfig(seed=seed)
        optimizer = training.AdamW(model.parameters(), cfg)
        bank = objectives.MemoryBank(cfg.loss.bank_capacity)
        region = data_cfg.region()
        rng = np.random.default_rng(seed)
        points = np.stack([rng.uniform(region.lon_min, region.lon_max, bank.capacity),
                           rng.uniform(region.lat_min, region.lat_max, bank.capacity)], axis=1)
        bank.push(model.loc.encode(points).values.astype(np.float64))
        training.save_checkpoint(str(checkpoint), model, optimizer, bank, cfg, ACCEPTANCE_STEPS)

    timed_setup(m, 5, setup)

    def op(i, traced):
        t0 = time.perf_counter()
        datagen.write_dataset(datagen.generate_records(data_cfg), str(dataset), data_cfg)
        t1 = time.perf_counter()
        records, _ = datagen.read_dataset(str(dataset))
        state = training.load_checkpoint(str(checkpoint))
        t2 = time.perf_counter()
        z, g = _embed(state["model"], records)
        t3 = time.perf_counter()
        truth = np.arange(len(records))
        metrics = evalkit.retrieval_metrics(g, z, truth)
        labels = np.array([r.label_class for r in records])
        evalkit.fit_probe(g, labels, kind="linear", task="classification", seed=0)
        t4 = time.perf_counter()
        m.add(traced, t4 - t1, t4 - t0, len(records), t3 - t2)
        if not traced:
            m.datagen_s.append(t1 - t0)
        training.save_checkpoint(str(resaved), state["model"], state["optimizer"], state["bank"], state["config"], state["step"])

        def checks():
            problems = []
            expected = brute_force_retrieval(g, z)
            if metrics != expected:
                problems.append(f"retrieval_metrics {metrics} != brute force {expected}")
            if checkpoint.read_bytes() != resaved.read_bytes():
                problems.append("checkpoint saved, loaded and saved again differs")
            return problems + _unit_norm_problems("localized RS", z) + _unit_norm_problems("SV", g)

        return checks

    closed_loop(m, seconds, 3, op, recorder)
    return m


# -- heatmap --------------------------------------------------------------------


def run_heatmap(seed, seconds, recorder, workdir) -> Measurement:
    """INR and location heatmaps for held-out samples, on meshes much finer
    than the `gair heatmap` defaults (0.01 degrees, 9 x 9 cells)."""
    m = Measurement()
    data_cfg = _data_config(seed)
    cells = np.random.default_rng(seed)

    def setup():
        # gen_triple(world, i) is record i of generate_records(data_cfg); only
        # the held-out tail of the 2000 records is needed.
        world = datagen.build_world(data_cfg)
        held = [datagen.gen_triple(world, i) for i in range(RECORDS - HELDOUT, RECORDS)]
        model = build_model(asdict(data_cfg), seed=seed)
        batch = datagen.make_batch(held, range(HELDOUT), np.random.default_rng(0), augment=False)
        sv = model.sv.encode_pooled(batch.sv).values
        heatmaps(model, held, batch, sv, 0)  # first-call allocations stay out of the timed loop
        return model, held, batch, sv

    def heatmaps(model, held, batch, sv, k):
        r = held[k]
        t0 = time.perf_counter()
        unfolded = inr.unfold3x3(model.rs.encode_feature_maps(batch.rs[k : k + 1]))
        grid_inr = evalkit.heatmap_inr(sv[k], model.ftheta, unfolded, r.footprint, INR_RESOLUTION)
        t1 = time.perf_counter()
        fp = r.footprint
        center = GeoPoint((fp.lon_min + fp.lon_max) / 2, (fp.lat_min + fp.lat_max) / 2)
        grid_loc = evalkit.heatmap_loc(sv[k], model.loc, center, LOC_RESOLUTION, LOC_CELLS, LOC_CELLS)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1, unfolded, grid_inr, grid_loc

    model, held, batch, sv = timed_setup(m, 9, setup)

    def op(i, traced):
        k = i % HELDOUT
        inr_s, loc_s, unfolded, grid_inr, grid_loc = heatmaps(model, held, batch, sv, k)
        m.add(traced, inr_s, loc_s, 1, inr_s + loc_s)

        def checks():
            problems = []
            fp = held[k].footprint
            rows, cols = grid_inr.values.shape
            for row, col in zip(cells.integers(rows, size=8), cells.integers(cols, size=8)):
                q = to_local(fp, grid_inr.cell_center(row, col))
                emb = inr.inr_query_batch(model.ftheta, unfolded, np.array([[q.u, q.v]])).values[0]
                if abs(float(emb @ sv[k]) - grid_inr.values[row, col]) > SIM_ATOL:
                    problems.append(f"heatmap_inr cell ({row}, {col}) differs from inr_query_batch")
            rows, cols = grid_loc.values.shape
            picks = cells.integers(rows * cols, size=64)
            points = [grid_loc.cell_center(*divmod(int(p), cols)) for p in picks]
            emb = model.loc.encode(np.array([[p.lon, p.lat] for p in points])).values
            expected = emb @ sv[k]
            got = grid_loc.values.reshape(-1)[picks]
            if np.max(np.abs(expected - got)) > SIM_ATOL:
                problems.append("heatmap_loc differs from loc.encode(mesh) @ sv")
            return problems

        return checks

    closed_loop(m, seconds, 20, op, recorder)
    return m


WORKLOADS = {"pretrain": run_pretrain, "evaluate": run_evaluate, "heatmap": run_heatmap}


def tail(values):
    """(value, percentile): the highest order statistic with at least ten
    samples above it, or the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(m: Measurement, peak_rss_mb) -> dict:
    """The metrics every workload reports: {name: (value, unit)}."""
    return {
        "setup_s": (statistics.median(m.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "items_per_s": (m.items / m.items_s, "1/s"),
        "primary_ms_p50": (statistics.median(m.primary_ms), "ms"),
        "primary_ms_tail": (tail(m.primary_ms)[0], "ms"),
        "secondary_ms_p50": (statistics.median(m.secondary_ms), "ms"),
        "secondary_ms_tail": (tail(m.secondary_ms)[0], "ms"),
    }


# Workload -> {workload-specific name: (value, unit)}, from the end-to-end
# metrics and the measurement.
NAMED = {
    "pretrain": lambda e, m: {
        "train_samples_per_s": (e["items_per_s"][0], "1/s"),
        "train_step_ms_p50": (e["primary_ms_p50"][0], "ms"),
        "train_step_ms_tail": (e["primary_ms_tail"][0], "ms"),
    },
    "evaluate": lambda e, m: {
        "datagen_records_per_s": (RECORDS / statistics.median(m.datagen_s), "1/s"),
        "embed_samples_per_s": (e["items_per_s"][0], "1/s"),
        "evaluate_s": (e["primary_ms_p50"][0] / 1e3, "s"),
    },
    "heatmap": lambda e, m: {
        "heatmap_inr_ms_p50": (e["primary_ms_p50"][0], "ms"),
        "heatmap_inr_ms_tail": (e["primary_ms_tail"][0], "ms"),
        "heatmap_loc_ms_p50": (e["secondary_ms_p50"][0], "ms"),
        "heatmap_loc_ms_tail": (e["secondary_ms_tail"][0], "ms"),
    },
}
