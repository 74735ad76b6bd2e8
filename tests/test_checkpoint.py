import json
import struct

import numpy as np
import pytest

from vulnpool import checkpoint as ckpt
from vulnpool import corpus, trainer
from vulnpool.checkpoint import CheckpointError
from vulnpool.trainer import TrainConfig

from conftest import build_tiny_model


def write_raw(path, manifest: dict, data: bytes = b""):
    body = json.dumps(manifest).encode("utf-8")
    path.write_bytes(ckpt._MAGIC + struct.pack("<Q", len(body)) + body + data)


def test_truncated_training_checkpoint_raises_only_checkpoint_error(tmp_path):
    split = corpus.split_dataset(corpus.generate_synthetic(4, 0.5, seed=8), (0.8, 0.1, 0.1),
                                 seed=8)
    model = build_tiny_model(split.train + split.val + split.test, mode="pool_masked")
    trainer.train(model, split, TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=0),
                  run_dir=tmp_path / "run")
    whole = (tmp_path / "run" / "epoch_0.ckpt").read_bytes()
    cut = tmp_path / "cut.ckpt"
    for size in range(0, len(whole), 97):
        cut.write_bytes(whole[:size])
        with pytest.raises(CheckpointError):
            trainer.load_checkpoint(cut, model.vocab)
    cut.write_bytes(whole)
    trainer.load_checkpoint(cut, model.vocab)


@pytest.mark.parametrize(
    "manifest, data, message",
    [
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "shape": [2], "offset": -8}]},
         b"\0" * 16, "negative"),
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "shape": [2], "offset": 0},
                                 {"name": "b", "dtype": "<f8", "shape": [2], "offset": 8}]},
         b"\0" * 24, "overlap"),
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "shape": [4], "offset": 0}]},
         b"\0" * 16, "truncated"),
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "offset": 0}]},
         b"\0" * 8, "corrupt manifest"),
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "shape": [1.5], "offset": 0}]},
         b"\0" * 8, "corrupt manifest"),
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "shape": [1], "offset": 0},
                                 {"name": "a", "dtype": "<f8", "shape": [1], "offset": 8}]},
         b"\0" * 16, "duplicate"),
        ([1, 2], b"", "corrupt manifest"),
        ({"meta": [], "arrays": []}, b"", "meta"),
    ],
    ids=["negative_offset", "overlap", "data_too_short", "missing_key", "float_shape",
         "duplicate_name", "not_an_object", "meta_not_an_object"],
)
def test_bad_manifest_raises_checkpoint_error(tmp_path, manifest, data, message):
    path = tmp_path / "bad.ckpt"
    write_raw(path, manifest, data)
    with pytest.raises(CheckpointError, match=message):
        ckpt.load_arrays(path)


def test_undecodable_manifest_raises_checkpoint_error(tmp_path):
    path = tmp_path / "bad.ckpt"
    for body in (b"{not json", b'{"arrays": [\xff]}'):
        path.write_bytes(ckpt._MAGIC + struct.pack("<Q", len(body)) + body)
        with pytest.raises(CheckpointError, match="corrupt manifest"):
            ckpt.load_arrays(path)


def test_manifest_length_beyond_file_raises_checkpoint_error(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(ckpt._MAGIC + struct.pack("<Q", 1 << 40) + b"{}")
    with pytest.raises(CheckpointError, match="manifest length"):
        ckpt.load_arrays(path)


def test_round_trip_still_exact(tmp_path):
    arrays = {"b": np.arange(6.0).reshape(2, 3), "a": np.array([1, 2], dtype=np.int64),
              "empty": np.zeros((0, 4)), "scalar": np.array(2.5),
              "strided": np.arange(12.0).reshape(3, 4)[:, ::2]}
    path = tmp_path / "ok.ckpt"
    ckpt.save_arrays(path, arrays, {"k": 1})
    loaded, meta = ckpt.load_arrays(path)
    assert meta == {"k": 1}
    for name, arr in arrays.items():
        assert loaded[name].shape == arr.shape, name
        assert np.array_equal(loaded[name], arr) and loaded[name].dtype == arr.dtype
    again = tmp_path / "again.ckpt"
    ckpt.save_arrays(again, loaded, meta)
    assert again.read_bytes() == path.read_bytes()
    ckpt.save_arrays(path, loaded, meta)  # over an existing file
    assert again.read_bytes() == path.read_bytes()


class _FullDisk:
    """A binary file whose second write fails, as on a full disk."""

    def __init__(self, path, mode):
        self.file = open(path, mode)
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(28, "No space left on device")
        return self.file.write(data)


def test_failed_save_leaves_previous_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    ckpt.save_arrays(path, {"w": np.arange(4.0)}, {"epoch": 1})
    before = path.read_bytes()
    monkeypatch.setattr(ckpt, "open", _FullDisk, raising=False)
    with pytest.raises(OSError, match="No space"):
        ckpt.save_arrays(path, {"w": np.ones(8)}, {"epoch": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
