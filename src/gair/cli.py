"""Command-line entry point: data generation, pretraining, evaluation,
heatmap emission, and the gradient audit.

Exit codes: 0 success, 1 check failure, 2 usage or an output that cannot
be written, 3 data/format error (including an input that cannot be read),
4 numeric divergence. Logs go to stderr; machine-readable output to files
or stdout. A JSON config file may supply any flag's value; explicit flags
win. BLAS runs one thread outside graph work (`gair.parallel`); training
steps and probe fits run it at the count it loaded with. To cap that
count, set OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS, depending on the BLAS
build) in the environment before starting the command; BLAS reads it
once, when numpy loads. Forward-only work spreads blocks over one thread
per usable core, which `taskset` caps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .datagen import DataConfig, generate_records, make_batch, read_dataset, write_dataset
from .encoders import EncoderConfig, LocEncoderConfig
from .errors import FormatError
from .evalkit import fit_probe, heatmap_inr, heatmap_loc, retrieval_metrics, write_heatmap_csv, write_heatmap_pgm
from .geo import GeoPoint, footprint_center
from .inr import unfold3x3
from .objectives import LossConfig
from .training import Model, TrainConfig, load_checkpoint, save_checkpoint, train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_DEG = math.pi / 180.0


def _log(msg: str):
    print(msg, file=sys.stderr)


def _usage_error(msg: str) -> int:
    _log(f"error: {msg}")
    return EXIT_USAGE


def _load_config_file(path) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise FormatError(f"unreadable config file {path}: {exc}") from None


def _merged(args, file_cfg: dict, key: str, default):
    """Flag > config file > default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in file_cfg:
        return file_cfg[key]
    return default


def _integer(value, name: str) -> int:
    """An integer field's value from a flag or the config file. A bool or a
    non-integral number is rejected, not truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """A float field's value from a flag or the config file. A bool is
    rejected, not read as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, not {value!r}")
    return float(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gair", description=__doc__)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic triple dataset")
    g.add_argument("--count", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)

    p = sub.add_parser("pretrain", help="contrastive pretraining on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    for dest, (flag, kind, _, _) in _PRETRAIN_OPTIONS.items():
        p.add_argument(flag, dest=dest, **({"type": kind} if kind in (int, float) else {"choices": kind}))
    p.add_argument("--resume", help="checkpoint to resume from")

    e = sub.add_parser("evaluate", help="retrieval metrics and probes on a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", help="metrics JSON path (default stdout)")
    e.add_argument("--probe", action="append", choices=["linear", "nonlinear"], default=None)
    e.add_argument("--holdout", type=int, default=256)

    h = sub.add_parser("heatmap", help="similarity heatmap around one sample")
    h.add_argument("--checkpoint", required=True)
    h.add_argument("--data", required=True)
    h.add_argument("--index", type=int, required=True)
    h.add_argument("--mode", choices=["loc", "inr"], default="loc")
    h.add_argument("--resolution", type=float, default=0.01, help="degrees per cell")
    h.add_argument("--cells", type=int, default=9, help="grid rows/cols for loc mode")
    h.add_argument("--out", required=True, help="output path prefix")

    sub.add_parser("gradcheck", help="finite-difference audit of all ops")
    return parser


def _dataset_config(args, file_cfg) -> DataConfig:
    """Flag > config file > dataclass default, for every DataConfig field;
    DataConfig checks the values."""
    d = DataConfig()
    values = {f.name: _merged(args, file_cfg, f.name, getattr(d, f.name)) for f in fields(DataConfig)}
    return DataConfig(**{k: _integer(v, k) if type(getattr(d, k)) is int else _real(v, k) for k, v in values.items()})


def cmd_gen_data(args, file_cfg) -> int:
    try:
        cfg = _dataset_config(args, file_cfg)
    except (TypeError, ValueError, OverflowError) as exc:
        return _usage_error(f"bad dataset config: {exc}")
    records = generate_records(cfg)
    manifest_path = write_dataset(records, args.out, cfg)
    region = cfg.region()
    _log(f"wrote {len(records)} records to {manifest_path}")
    print(json.dumps({
        "manifest": manifest_path,
        "count": len(records),
        "seed": cfg.seed,
        "region_deg": [region.lon_min / _DEG, region.lon_max / _DEG, region.lat_min / _DEG, region.lat_max / _DEG],
    }))
    return EXIT_OK


def build_model(data_cfg: dict, seed: int, dim: int = EncoderConfig.dim, rff_sigma: float = LocEncoderConfig.sigma,
                rff_sigma_min: float = LocEncoderConfig.sigma_min) -> Model:
    rs_cfg = EncoderConfig(channels=data_cfg["rs_channels"], image_size=data_cfg["rs_size"], dim=dim)
    sv_cfg = EncoderConfig(channels=1, image_size=data_cfg["sv_size"], dim=dim)
    loc_cfg = LocEncoderConfig(sigma=rff_sigma, sigma_min=rff_sigma_min, dim=dim)
    return Model(rs_cfg, sv_cfg, loc_cfg, seed=seed)


def _check_model_fits_data(model: Model, data_cfg: dict):
    """Raise FormatError unless the model's encoders take the images of the
    dataset whose manifest config is `data_cfg`."""
    takes = (model.rs.config.channels, model.rs.config.image_size, model.sv.config.image_size)
    has = tuple(data_cfg[k] for k in ("rs_channels", "rs_size", "sv_size"))
    if has != takes:
        raise FormatError(f"checkpoint model takes (rs_channels, rs_size, sv_size) = {takes}, but the dataset has {has}")


# The pretrain options: argparse dest, which is also the config-file key, to
# flag, type (int, float or the choices) and the field the value sets, of
# TrainConfig ("train"), its LossConfig ("loss") or build_model's keywords
# ("model"). A resumed run takes every one of them from its checkpoint.
_PRETRAIN_OPTIONS = {
    "seed": ("--seed", int, "train", "seed"),
    "batch_size": ("--batch-size", int, "train", "batch_size"),
    "epochs": ("--epochs", int, "train", "epochs"),
    "lr": ("--lr", float, "train", "base_lr"),
    "beta1": ("--beta1", float, "train", "beta1"),
    "beta2": ("--beta2", float, "train", "beta2"),
    "weight_decay": ("--weight-decay", float, "train", "weight_decay"),
    "warmup": ("--warmup", float, "train", "warmup_fraction"),
    "schedule": ("--schedule", ("cosine", "constant"), "train", "schedule"),
    "tau": ("--tau", float, "loss", "tau"),
    "lambda_secl": ("--lambda", float, "loss", "lambda_secl"),
    "bank_capacity": ("--bank-capacity", int, "loss", "bank_capacity"),
    "rff_sigma": ("--rff-sigma", float, "model", "rff_sigma"),
    "rff_sigma_min": ("--rff-sigma-min", float, "model", "rff_sigma_min"),
    "dim": ("--dim", int, "model", "dim"),
    "eval_every": ("--eval-every", int, "train", "eval_every"),
}


def _pretrain_fields(args, file_cfg, owner: str) -> dict:
    """{field: value} for each pretrain option of `owner` given as a flag or
    in the config file, the flag winning; the owner's default stands for the
    rest. Raises TypeError for a value of the wrong type."""
    convert = {int: _integer, float: _real}
    return {field: convert.get(kind, lambda value, _: value)(_merged(args, file_cfg, dest, None), dest)
            for dest, (_, kind, target, field) in _PRETRAIN_OPTIONS.items()
            if target == owner and (getattr(args, dest) is not None or dest in file_cfg)}


def cmd_pretrain(args, file_cfg) -> int:
    if args.resume:
        given = [flag for dest, (flag, *_) in _PRETRAIN_OPTIONS.items() if getattr(args, dest) is not None]
        if given:
            return _usage_error(f"{', '.join(given)} cannot change a resumed run: --resume takes the training "
                                "and model config from the checkpoint")
        # A config file may be shared with gen-data, so its values are only reported.
        ignored = [dest for dest in _PRETRAIN_OPTIONS if dest in file_cfg]
        if ignored:
            _log(f"note: --resume takes the training and model config from the checkpoint; "
                 f"ignoring config-file keys {', '.join(ignored)}")
    records, manifest = read_dataset(args.data)
    if args.resume:
        state = load_checkpoint(args.resume)
        model, optimizer, bank, start = state["model"], state["optimizer"], state["bank"], state["step"]
        cfg = state["config"]
        _check_model_fits_data(model, manifest["config"])
    else:
        try:
            cfg = TrainConfig(**_pretrain_fields(args, file_cfg, "train"),
                              loss=LossConfig(**_pretrain_fields(args, file_cfg, "loss")))
            model = build_model(manifest["config"], seed=cfg.seed, **_pretrain_fields(args, file_cfg, "model"))
        except (TypeError, ValueError, OverflowError) as exc:
            return _usage_error(f"bad pretrain config: {exc}")
        optimizer = bank = None
        start = 0

    if len(records) < cfg.batch_size:
        return _usage_error(f"dataset of {len(records)} records is smaller than one batch of {cfg.batch_size}")
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    run_cfg = {"train": asdict(cfg), "data": manifest["config"]}
    with open(os.path.join(args.out, "run_config.json"), "w", encoding="utf-8") as fh:
        json.dump(run_cfg, fh, indent=1, sort_keys=True)
    mode = "a" if args.resume else "w"
    with open(metrics_path, mode, encoding="utf-8") as fh:
        model, optimizer, bank, _ = train(
            model, records, cfg, bank=bank, optimizer=optimizer,
            start_step=start, metrics_fh=fh, checkpoint_dir=args.out,
        )
    final = os.path.join(args.out, "checkpoint.bin")
    total_steps = (len(records) // cfg.batch_size) * cfg.epochs
    save_checkpoint(final, model, optimizer, bank, cfg, total_steps)
    _log(f"wrote {final}")
    print(json.dumps({"checkpoint": final, "metrics": metrics_path, "steps": total_steps}))
    return EXIT_OK


def _holdout_embeddings(model: Model, records, holdout: int, batch: int = 64):
    """Embeddings for the trailing holdout split, computed without augmentation."""
    idx = list(range(len(records) - holdout, len(records)))
    rng = np.random.default_rng(0)  # unused: augment off
    z_all, g_all, cls = [], [], []
    for s in range(0, len(idx), batch):
        chunk = make_batch(records, idx[s : s + batch], rng, augment=False)
        z_all.append(model.localized_rs(chunk.rs, chunk.local_uv).values)
        g_all.append(model.sv.encode_pooled(chunk.sv).values)
        cls.append(chunk.label_class)
    return np.concatenate(z_all), np.concatenate(g_all), np.concatenate(cls)


def cmd_evaluate(args, file_cfg) -> int:
    if args.holdout < 1:
        return _usage_error("--holdout must be positive")
    state = load_checkpoint(args.checkpoint)
    records, manifest = read_dataset(args.data)
    model = state["model"]
    _check_model_fits_data(model, manifest["config"])
    holdout = min(args.holdout, len(records))
    z, g, cls = _holdout_embeddings(model, records, holdout)
    truth = np.arange(len(z))
    report = {
        "task": "sv_to_inr_rs_retrieval",
        "split": f"holdout[{holdout}]",
        "metrics": retrieval_metrics(g, z, truth, ks=(1, 5, 10)),
        "config_hash": state["header"]["config_hash"],
    }
    for kind in args.probe or []:
        _, acc = fit_probe(g, cls, kind=kind, task="classification", seed=0)
        report[f"probe_{kind}_accuracy"] = acc
    out = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return EXIT_OK


def cmd_heatmap(args, file_cfg) -> int:
    if not 0 < args.resolution < math.inf or args.cells < 1:
        return _usage_error("--resolution must be positive and finite and --cells positive")
    state = load_checkpoint(args.checkpoint)
    records, manifest = read_dataset(args.data)
    if not 0 <= args.index < len(records):
        return _usage_error(f"sample index {args.index} out of range (dataset has {len(records)})")
    model = state["model"]
    _check_model_fits_data(model, manifest["config"])
    r = records[args.index]
    rng = np.random.default_rng(0)
    batch = make_batch(records, [args.index], rng, augment=False)
    sv_emb = model.sv.encode_pooled(batch.sv).values[0]
    res_rad = args.resolution * _DEG
    if args.mode == "loc":
        grid = heatmap_loc(sv_emb, model.loc, GeoPoint(*footprint_center(*r.footprint.bounds)), res_rad, args.cells, args.cells)
    else:
        fm = model.rs.encode_feature_maps(batch.rs)
        grid = heatmap_inr(sv_emb, model.ftheta, unfold3x3(fm), r.footprint, res_rad)
    write_heatmap_csv(grid, args.out + ".csv")
    write_heatmap_pgm(grid, args.out + ".pgm")
    row, col = grid.argmax_cell()
    peak = grid.cell_center(row, col)
    print(json.dumps({
        "argmax_cell": [row, col],
        "argmax_lonlat_deg": [peak.lon / _DEG, peak.lat / _DEG],
        "true_lonlat_deg": [r.lon / _DEG, r.lat / _DEG],
        "csv": args.out + ".csv",
        "pgm": args.out + ".pgm",
    }))
    return EXIT_OK


def cmd_gradcheck(args, file_cfg) -> int:
    from .gradaudit import run_audit

    reports = run_audit(tolerance=1e-4)
    width = max(len(r.op_name) for r in reports)
    all_passed = True
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.op_name:<{width}}  max_rel_err={r.max_relative_error:.3e}  tol={r.tolerance:.0e}  {status}")
        all_passed &= r.passed
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        file_cfg = _load_config_file(args.config)
    except FormatError as exc:
        return _usage_error(str(exc))
    handlers = {
        "gen-data": cmd_gen_data,
        "pretrain": cmd_pretrain,
        "evaluate": cmd_evaluate,
        "heatmap": cmd_heatmap,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args, file_cfg)
    except FormatError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    except ArithmeticError as exc:
        _log(f"error: numeric divergence: {exc}")
        return EXIT_NUMERIC
    except OSError as exc:
        return _usage_error(f"cannot write output: {exc}")


def main_exit():
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
