"""Property tests: a damaged dataset or checkpoint either loads or raises
FormatError, never anything else.

Each test starts from a tiny valid artifact and applies one edit: truncate a
file, flip one byte, drop one JSON key, or replace one JSON value with a
value of another JSON type. Examples are derandomized so that every run
checks the same cases.
"""

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gair.datagen import DataConfig, generate_records, read_dataset, write_dataset
from gair.encoders import EncoderConfig, LocEncoderConfig
from gair.errors import FormatError
from gair.objectives import LossConfig
from gair.training import Model, TrainConfig, load_checkpoint, save_checkpoint, train

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# One sample of each JSON type; a replacement is any sample of another type.
JSON_SAMPLES = [None, True, 0, -1, 7, 2.5, "", "x", [], [1, "a"], {}, {"k": 1}]


def json_paths(obj, prefix=()):
    """Every key path into nested JSON objects and arrays."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


def edited(obj, path, edit):
    """A deep copy of `obj` with `edit(container, key)` applied at `path`."""
    obj = json.loads(json.dumps(obj))
    container = obj
    for key in path[:-1]:
        container = container[key]
    edit(container, path[-1])
    return obj


def json_edit(draw, obj):
    """Draw one drop-a-key or replace-a-value edit of `obj`."""
    path = draw(st.sampled_from(list(json_paths(obj))))
    if draw(st.booleans()):
        return edited(obj, path, lambda container, key: container.pop(key))
    old = obj
    for key in path:
        old = old[key]
    new = draw(st.sampled_from([v for v in JSON_SAMPLES if type(v) is not type(old)]))
    return edited(obj, path, lambda container, key: container.__setitem__(key, new))


def byte_edit(draw, raw: bytes) -> bytes:
    """Draw a truncation or a one-byte flip of `raw`."""
    if draw(st.booleans()):
        return raw[: draw(st.integers(0, len(raw) - 1))]
    i = draw(st.integers(0, len(raw) - 1))
    flip = draw(st.integers(1, 255))
    return raw[:i] + bytes([raw[i] ^ flip]) + raw[i + 1 :]


def loads_or_format_error(load, path):
    try:
        load(path)
    except FormatError:
        pass


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_ds")
    cfg = DataConfig(count=3, seed=7, rs_size=4, sv_size=2, temporal_variants=1, modes=2)
    write_dataset(generate_records(cfg), root / "ds", cfg)
    manifest = json.loads((root / "ds" / "manifest.json").read_text())
    return root / "ds", manifest, (root / "ds" / "manifest.json").read_bytes(), (root / "ds" / "data.blob").read_bytes()


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_ckpt")
    model = Model(
        EncoderConfig(channels=3, image_size=4, patch_size=2, dim=4, depth=1, heads=2, ff_width=4),
        EncoderConfig(channels=1, image_size=4, patch_size=2, dim=4, depth=1, heads=2, ff_width=4),
        LocEncoderConfig(freqs=4, sigma=10.0, hidden=4, dim=4),
        seed=7,
    )
    records = generate_records(DataConfig(count=4, seed=7, rs_size=4, sv_size=4, temporal_variants=1, modes=2))
    cfg = TrainConfig(batch_size=2, epochs=1, seed=7, loss=LossConfig(bank_capacity=3))
    model, optimizer, bank, _ = train(model, records, cfg)
    path = root / "ckpt.bin"
    save_checkpoint(path, model, optimizer, bank, cfg, step=2)
    raw = path.read_bytes()
    header_len = struct.unpack_from("<IQ", raw, 8)[1]
    return root, raw, json.loads(raw[20 : 20 + header_len]), raw[20 + header_len :]


def test_fixtures_load(dataset, checkpoint):
    records, _ = read_dataset(dataset[0])
    assert len(records) == 3
    state = load_checkpoint(checkpoint[0] / "ckpt.bin")
    assert state["step"] == 2 and len(state["bank"]) == 3


class TestDatasetFuzz:
    @FUZZ
    @given(data=st.data(), target=st.sampled_from(["manifest.json", "data.blob"]))
    def test_byte_edits(self, dataset, tmp_path, data, target):
        ds, _, manifest_raw, blob_raw = dataset
        out = tmp_path / "ds"
        out.mkdir(exist_ok=True)
        files = {"manifest.json": manifest_raw, "data.blob": blob_raw}
        files[target] = byte_edit(data.draw, files[target])
        for name, raw in files.items():
            (out / name).write_bytes(raw)
        loads_or_format_error(read_dataset, out)

    @FUZZ
    @given(data=st.data())
    def test_manifest_edits(self, dataset, tmp_path, data):
        _, manifest, _, blob_raw = dataset
        out = tmp_path / "ds"
        out.mkdir(exist_ok=True)
        (out / "manifest.json").write_text(json.dumps(json_edit(data.draw, manifest)))
        (out / "data.blob").write_bytes(blob_raw)
        loads_or_format_error(read_dataset, out)


class TestCheckpointFuzz:
    @FUZZ
    @given(data=st.data())
    def test_byte_edits(self, checkpoint, tmp_path, data):
        _, raw, _, _ = checkpoint
        path = tmp_path / "ckpt.bin"
        path.write_bytes(byte_edit(data.draw, raw))
        loads_or_format_error(load_checkpoint, path)

    @FUZZ
    @given(data=st.data())
    def test_header_edits(self, checkpoint, tmp_path, data):
        _, raw, header, body = checkpoint
        new = json.dumps(json_edit(data.draw, header), sort_keys=True).encode()
        path = tmp_path / "ckpt.bin"
        path.write_bytes(raw[:8] + struct.pack("<IQ", 1, len(new)) + new + body)
        loads_or_format_error(load_checkpoint, path)
