import json
import math
import operator
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from gair.cli import main
from gair.datagen import BLOB_MAGIC, DataConfig, _record_dtype, read_dataset
from gair.training import load_checkpoint

TINY_DATA = {
    "count": 12,
    "seed": 7,
    "rs_size": 8,
    "sv_size": 8,
    "temporal_variants": 2,
}

TINY_TRAIN = {
    "batch_size": 4,
    "epochs": 1,
    "dim": 16,
    "rff_sigma": 10.0,
    "bank_capacity": 16,
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def dataset_of(tmp_path, **edit):
    """Generate a dataset from TINY_DATA with `edit` applied; returns its directory."""
    out = str(tmp_path / "other_ds")
    assert main(["--config", write_config(tmp_path, "other.json", {**TINY_DATA, **edit}), "gen-data", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus a one-epoch pretrained checkpoint."""
    root = tmp_path_factory.mktemp("cliws")
    data_cfg = write_config(root, "data.json", TINY_DATA)
    ds = str(root / "ds")
    assert main(["--config", data_cfg, "gen-data", "--out", ds]) == 0
    train_cfg = write_config(root, "train.json", {**TINY_DATA, **TINY_TRAIN})
    run = str(root / "run")
    assert main(["--config", train_cfg, "pretrain", "--data", ds, "--out", run]) == 0
    return {"root": root, "ds": ds, "ckpt": os.path.join(run, "checkpoint.bin"), "run": run}


class TestGenData:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", TINY_DATA)
        for name in ("a", "b"):
            assert main(["--config", cfg, "gen-data", "--out", str(tmp_path / name)]) == 0
        blob_a = (tmp_path / "a" / "data.blob").read_bytes()
        blob_b = (tmp_path / "b" / "data.blob").read_bytes()
        assert blob_a == blob_b
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (tmp_path / "b" / "manifest.json").read_bytes()

    def test_zero_count_is_usage_error(self, tmp_path):
        assert main(["gen-data", "--count", "0", "--out", str(tmp_path / "x")]) == 2

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "d.json", TINY_DATA)
        assert main(["--config", cfg, "gen-data", "--count", "3", "--out", str(tmp_path / "x")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 3

    def test_unconvertible_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "d.json", {**TINY_DATA, "modes": "x"})
        assert main(["--config", cfg, "gen-data", "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        {"rs_size": 0}, {"rs_size": 1}, {"temporal_variants": 0}, {"footprint_deg": 2.0},
        {"region_deg": -1}, {"modes": 0}, {"sv_size": 0},
        # An integer field rejects a fractional number or a bool instead of truncating it,
        # and a float field rejects a bool instead of reading it as 1.0.
        {"count": 2.7, "rs_size": 16.9}, {"count": True}, {"footprint_deg": True},
    ], ids=lambda edit: "-".join(f"{k}={v}" for k, v in edit.items()))
    def test_rejected_dataset_value_is_usage_error(self, tmp_path, capsys, edit):
        cfg = write_config(tmp_path, "d.json", {**TINY_DATA, "count": 4, **edit})
        assert main(["--config", cfg, "gen-data", "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_every_dataset_field_reaches_the_manifest(self, tmp_path):
        edit = {"rs_channels": 1, "inr_hull_margin": 0.3, "region_lon0_deg": -70.0, "region_lat0_deg": -20.0}
        cfg = write_config(tmp_path, "d.json", {**TINY_DATA, "count": 3, **edit})
        assert main(["--config", cfg, "gen-data", "--out", str(tmp_path / "x")]) == 0
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert {k: manifest["config"][k] for k in edit} == edit
        records, _ = read_dataset(str(tmp_path / "x"))
        assert records[0].rs.shape[1] == 1
        assert records[0].footprint.lon_min >= -70.0 * math.pi / 180 - 1e-12

    @pytest.mark.parametrize("edit", [{"region_lat0_deg": 89.5}, {"region_lon0_deg": 179.5}],
                             ids=["past-pole", "across-antimeridian"])
    def test_unusable_region_is_usage_error(self, tmp_path, capsys, edit):
        cfg = write_config(tmp_path, "d.json", {**TINY_DATA, "count": 3, **edit})
        assert main(["--config", cfg, "gen-data", "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_out_under_a_file_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        cfg = write_config(tmp_path, "d.json", TINY_DATA)
        assert main(["--config", cfg, "gen-data", "--out", str(tmp_path / "f" / "ds")]) == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_unreadable_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["--config", str(bad), "gen-data", "--out", str(tmp_path / "x")]) == 2


class TestPretrain:
    def test_writes_checkpoint_and_metrics(self, workspace):
        assert os.path.exists(workspace["ckpt"])
        metrics = [json.loads(line) for line in open(os.path.join(workspace["run"], "metrics.jsonl"))]
        assert len(metrics) == 3  # 12 records / batch 4, one epoch
        assert all({"incl", "secl", "total", "grad_norm", "grad_norm_loc", "lr", "step"} <= set(m) for m in metrics)

    # Each pretrain option's config-file key, flag, a value other than its
    # default, and where the value lands in the final checkpoint's state.
    OPTIONS = [
        ("seed", "--seed", 3, "config.seed"), ("batch_size", "--batch-size", 3, "config.batch_size"),
        ("epochs", "--epochs", 2, "config.epochs"), ("lr", "--lr", 0.002, "config.base_lr"),
        ("beta1", "--beta1", 0.8, "config.beta1"), ("beta2", "--beta2", 0.99, "config.beta2"),
        ("weight_decay", "--weight-decay", 0.01, "config.weight_decay"),
        ("warmup", "--warmup", 0.1, "config.warmup_fraction"), ("schedule", "--schedule", "constant", "config.schedule"),
        ("tau", "--tau", 0.1, "config.loss.tau"), ("lambda_secl", "--lambda", 0.5, "config.loss.lambda_secl"),
        ("bank_capacity", "--bank-capacity", 12, "config.loss.bank_capacity"),
        ("eval_every", "--eval-every", 5, "config.eval_every"), ("dim", "--dim", 8, "model.rs.config.dim"),
        ("rff_sigma", "--rff-sigma", 5.0, "model.loc.config.sigma"),
        ("rff_sigma_min", "--rff-sigma-min", 0.5, "model.loc.config.sigma_min"),
    ]

    @pytest.mark.parametrize("source", ["flags", "config-file"])
    def test_every_option_reaches_its_field(self, workspace, tmp_path, source):
        if source == "flags":
            cfg = write_config(tmp_path, "t.json", TINY_DATA)
            flags = [str(part) for _, flag, value, _ in self.OPTIONS for part in (flag, value)]
        else:
            cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **{key: value for key, _, value, _ in self.OPTIONS}})
            flags = []
        out = tmp_path / "o"
        assert main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", str(out), *flags]) == 0
        state = load_checkpoint(str(out / "checkpoint.bin"))
        for key, _, value, where in self.OPTIONS:
            head, path = where.split(".", 1)
            assert operator.attrgetter(path)(state[head]) == value, key

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert main(["pretrain", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 3

    def test_out_under_a_file_is_usage_error(self, workspace, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **TINY_TRAIN})
        capsys.readouterr()
        assert main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", str(tmp_path / "f" / "run")]) == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_missing_resume_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **TINY_TRAIN})
        capsys.readouterr()
        assert main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", str(tmp_path / "o"),
                     "--resume", str(tmp_path / "nope.bin")]) == 3
        assert "unreadable checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("factor", [3.0, math.nan], ids=["scaled", "nan"])
    def test_resume_from_a_non_unit_bank_is_data_error(self, workspace, tmp_path, capsys, factor):
        raw = bytearray(open(workspace["ckpt"], "rb").read())
        _, header_len = struct.unpack_from("<IQ", raw, 8)
        (entry,) = [e for e in json.loads(raw[20 : 20 + header_len])["arrays"] if e["name"] == "bank"]
        start, dtype = 20 + header_len + entry["offset"], np.dtype("<" + entry["dtype"])
        end = start + math.prod(entry["shape"]) * dtype.itemsize
        assert entry["shape"][0] > 0
        raw[start:end] = (np.frombuffer(bytes(raw[start:end]), dtype) * factor).astype(dtype).tobytes()
        bad = tmp_path / "bad_bank.bin"
        bad.write_bytes(bytes(raw))
        rc = main(["pretrain", "--data", workspace["ds"], "--out", str(tmp_path / "o"), "--resume", str(bad)])
        assert rc == 3
        assert "bank" in capsys.readouterr().err

    def test_manifest_without_schema_keys_is_data_error(self, tmp_path):
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "manifest.json").write_text(json.dumps({"version": 1}))
        assert main(["pretrain", "--data", str(ds), "--out", str(tmp_path / "o")]) == 3

    def test_footprint_past_the_pole_is_data_error(self, tmp_path, capsys):
        from gair.datagen import BLOB_MAGIC, DataConfig, _record_dtype

        ds = tmp_path / "ds"
        assert main(["--config", write_config(tmp_path, "d.json", TINY_DATA), "gen-data", "--out", str(ds)]) == 0
        data = bytearray((ds / "data.blob").read_bytes())
        table = np.frombuffer(data, dtype=_record_dtype(DataConfig(**TINY_DATA)), offset=len(BLOB_MAGIC))
        table["footprint"][0, 2:] = [1.60, 1.62]
        table["lat"][0] = 1.61
        (ds / "data.blob").write_bytes(bytes(data))
        capsys.readouterr()
        cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **TINY_TRAIN})
        assert main(["--config", cfg, "pretrain", "--data", str(ds), "--out", str(tmp_path / "o")]) == 3
        assert "past a pole" in capsys.readouterr().err
        assert not (tmp_path / "o" / "checkpoint.bin").exists()

    def test_lambda_zero_reports_zero_location_gradient(self, tmp_path, workspace):
        cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **TINY_TRAIN})
        out = str(tmp_path / "run0")
        rc = main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", out, "--lambda", "0.0"])
        assert rc == 0
        metrics = [json.loads(line) for line in open(os.path.join(out, "metrics.jsonl"))]
        assert all(m["grad_norm_loc"] == 0.0 for m in metrics)
        assert any(m["grad_norm"] > 0.0 for m in metrics)

    @pytest.mark.parametrize("flags", [
        ["--seed", "3"], ["--batch-size", "2"], ["--epochs", "4"], ["--lr", "0.5"], ["--beta1", "0.8"],
        ["--beta2", "0.99"], ["--weight-decay", "0.1"], ["--warmup", "0.2"], ["--schedule", "constant"],
        ["--tau", "0.2"], ["--lambda", "0.5"], ["--bank-capacity", "8"], ["--eval-every", "1"], ["--dim", "32"],
        ["--rff-sigma", "5"], ["--rff-sigma-min", "0.5"], ["--epochs", "4", "--lr", "0.5"],
    ], ids=lambda flags: "".join(f for f in flags if f.startswith("--")))
    def test_training_flag_with_resume_is_usage_error(self, tmp_path, workspace, capsys, flags):
        """--resume trains on the checkpoint's config, so a flag that would
        set another is refused before anything is written."""
        out = tmp_path / "o"
        rc = main(["pretrain", "--data", workspace["ds"], "--out", str(out), "--resume", workspace["ckpt"], *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags if flag.startswith("--"))
        assert not out.exists()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path, workspace, capsys):
        cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **TINY_TRAIN, "epochs": 2, "eval_every": 3})
        full = str(tmp_path / "full")
        assert main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", full]) == 0
        # same run, but interrupted at the step-3 checkpoint and resumed
        part = str(tmp_path / "part")
        assert main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", part]) == 0
        resumed = str(tmp_path / "resumed")
        capsys.readouterr()
        rc = main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", resumed,
                   "--resume", os.path.join(part, "ckpt_000003.bin")])
        assert rc == 0
        # The config file's training keys are reported as ignored, in one line.
        (note,) = [line for line in capsys.readouterr().err.splitlines() if "ignoring config-file keys" in line]
        assert all(key in note for key in ("seed", "batch_size", "epochs", "eval_every", "dim", "rff_sigma"))
        a = open(os.path.join(full, "checkpoint.bin"), "rb").read()
        b = open(os.path.join(resumed, "checkpoint.bin"), "rb").read()
        assert a == b

    def test_nonfinite_gradient_is_numeric_error(self, tmp_path, workspace, monkeypatch, capsys):
        from gair import training

        step = training.AdamW.step

        def poisoned_step(self, lr):
            p = next(iter(self.params.values()))
            p.grad = np.full_like(p.values, np.nan)
            step(self, lr)

        monkeypatch.setattr(training.AdamW, "step", poisoned_step)
        cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **TINY_TRAIN})
        assert main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", str(tmp_path / "o")]) == 4
        assert "error: numeric divergence" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--batch-size", "1"], ["--warmup", "1.5"], ["--tau", "0"], ["--tau", "nan"],
                                       ["--lambda", "nan"], ["--lambda", "-1"], ["--epochs", "-1"], ["--eval-every", "-1"],
                                       ["--bank-capacity", "2"], ["--batch-size", "13"]])
    def test_rejected_training_value_is_usage_error(self, tmp_path, workspace, capsys, flags):
        cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **TINY_TRAIN})
        rc = main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", str(tmp_path / "o"), *flags])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ({"epochs": 0.5, "batch_size": 2.9}, "must be an integer"), ({"dim": 16.5}, "must be an integer"),
        ({"eval_every": True}, "must be an integer"), ({"lr": True}, "lr must be a number"),
    ], ids=["fractional", "fractional-dim", "bool", "bool-lr"])
    def test_non_integer_config_value_is_usage_error(self, tmp_path, workspace, capsys, edit, message):
        """An integer field rejects a fractional number or a bool instead of
        truncating it, and a float field rejects a bool instead of reading it
        as 1.0."""
        cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **TINY_TRAIN, **edit})
        rc = main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "checkpoint.bin").exists()

    def test_resume_on_a_dataset_of_other_image_sizes_is_data_error(self, tmp_path, workspace, capsys):
        # 24 records leave the one-epoch checkpoint three steps to train.
        other = dataset_of(tmp_path, count=24, rs_size=16)
        out = tmp_path / "o"
        rc = main(["pretrain", "--data", other, "--out", str(out), "--resume", workspace["ckpt"]])
        assert rc == 3
        assert "rs_size" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_on_dataset_smaller_than_batch_is_usage_error(self, tmp_path, workspace, capsys):
        small = str(tmp_path / "small")
        assert main(["--config", write_config(tmp_path, "d.json", {**TINY_DATA, "count": 3}), "gen-data", "--out", small]) == 0
        rc = main(["pretrain", "--data", small, "--out", str(tmp_path / "o"), "--resume", workspace["ckpt"]])
        assert rc == 2
        assert "smaller than one batch" in capsys.readouterr().err


    @pytest.mark.parametrize("flags", [["--dim", "3"], ["--dim", "0"], ["--rff-sigma", "0"], ["--lr", "-1"],
                                       ["--beta1", "1.0"], ["--beta2", "1.5"], ["--weight-decay", "-0.1"]])
    def test_rejected_model_or_optimizer_value_is_usage_error(self, tmp_path, workspace, capsys, flags):
        cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **TINY_TRAIN})
        rc = main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", str(tmp_path / "o"), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: bad" in err and "Traceback" not in err

    def test_rff_sigma_min_reaches_the_model(self, tmp_path, workspace, monkeypatch):
        from gair import cli

        built = []
        build_model = cli.build_model
        monkeypatch.setattr(cli, "build_model", lambda *a, **kw: built.append(kw) or build_model(*a, **kw))
        cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **TINY_TRAIN})
        out = tmp_path / "o"
        assert main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", str(out), "--rff-sigma-min", "2.5"]) == 0
        assert len(built) == 1 and built[0]["rff_sigma_min"] == 2.5
        model = load_checkpoint(str(out / "checkpoint.bin"))["model"]
        assert model.loc.config.sigma_min == 2.5 and model.loc.config.sigma == 10.0

    def test_unknown_schedule_in_config_is_usage_error(self, tmp_path, workspace, capsys):
        cfg = write_config(tmp_path, "t.json", {**TINY_DATA, **TINY_TRAIN, "schedule": "bogus"})
        assert main(["--config", cfg, "pretrain", "--data", workspace["ds"], "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_report_fields(self, workspace, tmp_path):
        out = str(tmp_path / "report.json")
        rc = main(["evaluate", "--checkpoint", workspace["ckpt"], "--data", workspace["ds"],
                   "--holdout", "8", "--probe", "linear", "--probe", "nonlinear", "--out", out])
        assert rc == 0
        report = json.loads(open(out).read())
        assert report["task"] == "sv_to_inr_rs_retrieval"
        assert 0.0 <= report["metrics"]["recall@1"] <= 1.0
        assert "probe_linear_accuracy" in report and "probe_nonlinear_accuracy" in report
        assert len(report["config_hash"]) == 16

    @pytest.mark.parametrize("command", ["evaluate", "pretrain"])
    def test_dataset_from_another_rng_is_data_error(self, workspace, tmp_path, capsys, command):
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "data.blob").write_bytes(open(os.path.join(workspace["ds"], "data.blob"), "rb").read())
        manifest = json.loads(open(os.path.join(workspace["ds"], "manifest.json")).read())
        (ds / "manifest.json").write_text(json.dumps({**manifest, "rng": "mt19937"}))
        args = {"evaluate": ["--checkpoint", workspace["ckpt"]], "pretrain": ["--out", str(tmp_path / "o")]}[command]
        capsys.readouterr()
        assert main([command, "--data", str(ds), *args]) == 3
        assert "mt19937" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_class_labels_are_data_error(self, workspace, tmp_path, capsys):
        # A probe on labels of -1 used to train them as the last class and report an accuracy.
        ds = tmp_path / "ds"
        ds.mkdir()
        manifest = open(os.path.join(workspace["ds"], "manifest.json")).read()
        (ds / "manifest.json").write_text(manifest)
        data = bytearray(open(os.path.join(workspace["ds"], "data.blob"), "rb").read())
        dtype = _record_dtype(DataConfig(**json.loads(manifest)["config"]))
        table = np.frombuffer(data, dtype=dtype, offset=len(BLOB_MAGIC))
        table["label_class"] = np.where(table["label_class"] == 0, -1, 1)
        (ds / "data.blob").write_bytes(bytes(data))
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", workspace["ckpt"], "--data", str(ds), "--probe", "linear",
                     "--out", str(out)]) == 3
        assert "label_class -1 is not 0 or 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [{"rs_size": 16}, {"sv_size": 16}, {"rs_channels": 1}],
                             ids=lambda edit: "-".join(f"{k}={v}" for k, v in edit.items()))
    def test_dataset_of_other_image_sizes_is_data_error(self, workspace, tmp_path, capsys, edit):
        other = dataset_of(tmp_path, **edit)
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", workspace["ckpt"], "--data", other, "--out", str(out)]) == 3
        assert "the dataset has" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_checkpoint_version_is_data_error(self, workspace, tmp_path, capsys, edit_checkpoint_header, version):
        old = tmp_path / "old.bin"
        old.write_bytes(open(workspace["ckpt"], "rb").read())
        edit_checkpoint_header(old, lambda header: None, version=version)
        assert main(["evaluate", "--checkpoint", str(old), "--data", workspace["ds"]]) == 3
        assert f"unsupported checkpoint version {version}" in capsys.readouterr().err

    def test_checkpoint_header_without_arrays_is_data_error(self, workspace, tmp_path, edit_checkpoint_header):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(open(workspace["ckpt"], "rb").read())
        edit_checkpoint_header(bad, lambda header: header.pop("arrays"))
        assert main(["evaluate", "--checkpoint", str(bad), "--data", workspace["ds"]]) == 3

    def test_unknown_train_config_key_is_data_error(self, workspace, tmp_path, edit_checkpoint_header):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(open(workspace["ckpt"], "rb").read())
        edit_checkpoint_header(bad, lambda header: header["train_config"].update(bogus=1))
        assert main(["evaluate", "--checkpoint", str(bad), "--data", workspace["ds"]]) == 3

    @pytest.mark.parametrize("holdout", ["0", "-3"])
    def test_nonpositive_holdout_is_usage_error(self, workspace, capsys, holdout):
        rc = main(["evaluate", "--checkpoint", workspace["ckpt"], "--data", workspace["ds"], "--holdout", holdout])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_probe_divergence_is_numeric_error(self, workspace, monkeypatch, capsys):
        import gair.cli as cli

        embeddings = cli._holdout_embeddings

        def nonfinite_sv(*args, **kwargs):
            z, g, cls = embeddings(*args, **kwargs)
            g[0, 0] = np.nan
            return z, g, cls

        monkeypatch.setattr(cli, "_holdout_embeddings", nonfinite_sv)
        rc = main(["evaluate", "--checkpoint", workspace["ckpt"], "--data", workspace["ds"],
                   "--holdout", "8", "--probe", "linear"])
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    def test_out_under_a_missing_directory_is_usage_error(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        rc = main(["evaluate", "--checkpoint", workspace["ckpt"], "--data", workspace["ds"], "--holdout", "8",
                   "--out", str(tmp_path / "missing" / "r.json")])
        assert rc == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_missing_checkpoint_is_data_error(self, workspace, tmp_path):
        assert main(["evaluate", "--checkpoint", str(tmp_path / "nope.bin"), "--data", workspace["ds"]]) == 3

    def test_corrupt_checkpoint_is_data_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.bin"
        data = bytearray(open(workspace["ckpt"], "rb").read())
        data[:8] = b"BADMAGIC"
        bad.write_bytes(bytes(data))
        assert main(["evaluate", "--checkpoint", str(bad), "--data", workspace["ds"]]) == 3


class TestHeatmap:
    def test_loc_mode_outputs(self, workspace, tmp_path, capsys):
        prefix = str(tmp_path / "hm")
        rc = main(["heatmap", "--checkpoint", workspace["ckpt"], "--data", workspace["ds"],
                   "--index", "2", "--mode", "loc", "--cells", "5", "--out", prefix])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        rows = [line.split(",") for line in open(prefix + ".csv").read().splitlines()]
        vals = np.array([[float(x) for x in row] for row in rows])
        assert vals.shape == (5, 5)
        assert np.all(np.abs(vals) <= 1.0 + 1e-6)
        raw = open(prefix + ".pgm", "rb").read()
        assert raw.startswith(b"P5\n5 5\n255\n")
        pixels = np.frombuffer(raw[len(b"P5\n5 5\n255\n"):], dtype=np.uint8).reshape(5, 5)
        assert np.array_equal(pixels, np.clip(np.round((vals + 1) * 127.5), 0, 255).astype(np.uint8))
        assert info["argmax_cell"] == list(np.unravel_index(np.argmax(vals), vals.shape))

    def test_inr_mode_outputs(self, workspace, tmp_path):
        prefix = str(tmp_path / "hm_inr")
        rc = main(["heatmap", "--checkpoint", workspace["ckpt"], "--data", workspace["ds"],
                   "--index", "0", "--mode", "inr", "--resolution", "0.0025", "--out", prefix])
        assert rc == 0
        assert os.path.exists(prefix + ".csv") and os.path.exists(prefix + ".pgm")

    def test_deterministic(self, workspace, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (a, b):
            assert main(["heatmap", "--checkpoint", workspace["ckpt"], "--data", workspace["ds"],
                         "--index", "1", "--out", prefix]) == 0
        assert open(a + ".csv").read() == open(b + ".csv").read()

    @pytest.mark.parametrize("flags", [["--resolution", "0"], ["--cells", "0"], ["--resolution", "nan"],
                                       ["--resolution", "nan", "--mode", "inr"], ["--resolution", "inf", "--mode", "inr"]])
    def test_nonpositive_grid_is_usage_error(self, workspace, tmp_path, capsys, flags):
        rc = main(["heatmap", "--checkpoint", workspace["ckpt"], "--data", workspace["ds"],
                   "--index", "0", "--out", str(tmp_path / "x"), *flags])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_out_under_a_missing_directory_is_usage_error(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        rc = main(["heatmap", "--checkpoint", workspace["ckpt"], "--data", workspace["ds"],
                   "--index", "0", "--out", str(tmp_path / "missing" / "hm")])
        assert rc == 2
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["inr", "loc"])
    def test_dataset_of_other_image_sizes_is_data_error(self, workspace, tmp_path, capsys, mode):
        other = dataset_of(tmp_path, rs_size=16)
        prefix = tmp_path / "hm"
        capsys.readouterr()
        rc = main(["heatmap", "--checkpoint", workspace["ckpt"], "--data", other, "--index", "0", "--mode", mode,
                   "--out", str(prefix)])
        assert rc == 3
        assert "rs_size" in capsys.readouterr().err
        assert list(tmp_path.glob("hm*")) == []

    def test_index_out_of_range_is_usage_error(self, workspace, tmp_path):
        rc = main(["heatmap", "--checkpoint", workspace["ckpt"], "--data", workspace["ds"],
                   "--index", "99", "--out", str(tmp_path / "x")])
        assert rc == 2


class TestGradcheck:
    def test_audit_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_planted_fault_is_detected(self, monkeypatch, capsys):
        import gair.tensor as T

        unbroadcast = T._unbroadcast
        monkeypatch.setattr(T, "_unbroadcast", lambda grad, shape: unbroadcast(grad, shape) * 1.01)
        assert main(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_threads_cap_env(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-m", "gair.cli", "gradcheck"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2
