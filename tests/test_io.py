"""EEGB container: round trips, framing, corruption detection."""

import json
import struct

import numpy as np
import pytest

from vmidecode import (EegRecording, EpochSet, Montage, load_epochs,
                       load_recording, save_epochs, save_recording)
from vmidecode.errors import (CorruptionError, DegenerateInputError,
                              FormatError)
from vmidecode.io import (DTYPES, MAGIC, VERSION, read_container,
                          write_container)

from conftest import SMALL_CHANNELS


def _recording(seed=0, fs=250):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((8, 1000)).astype(np.float32)
    return EegRecording(Montage(SMALL_CHANNELS), fs, data,
                        [(0, 0), (100, 3)])


def test_recording_round_trip_bit_exact(tmp_path):
    rec = _recording()
    path = tmp_path / "r.eegb"
    save_recording(rec, path)
    back = load_recording(path)
    assert back.fs == rec.fs
    assert back.montage.channel_names == rec.montage.channel_names
    assert back.events == rec.events
    assert back.data.tobytes() == rec.data.tobytes()


def test_recording_resave_is_byte_identical(tmp_path):
    rec = _recording()
    p1, p2 = tmp_path / "a.eegb", tmp_path / "b.eegb"
    save_recording(rec, p1)
    save_recording(load_recording(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_container_framing(tmp_path):
    path = tmp_path / "r.eegb"
    save_recording(_recording(fs=1000), path)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC == b"EEGB"
    assert blob[4] == VERSION == 2
    (hlen,) = struct.unpack_from("<I", blob, 5)
    header = json.loads(blob[9:9 + hlen].decode("utf-8"))
    assert header["fs"] == 1000
    assert header["unit"] == "uV"
    assert len(header["channel_names"]) == 8
    assert header["arrays"] == [["data", "<f4", [8, 1000]]]
    assert len(blob) == 9 + hlen + 8 * 1000 * 4


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.eegb"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(FormatError):
        load_recording(path)


def test_bad_version(tmp_path):
    path = tmp_path / "bad.eegb"
    save_recording(_recording(), path)
    blob = bytearray(path.read_bytes())
    blob[4] = VERSION + 1
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_recording(path)


def test_truncated_payload_is_corruption(tmp_path):
    path = tmp_path / "trunc.eegb"
    save_recording(_recording(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-40])
    with pytest.raises(CorruptionError):
        load_recording(path)


def test_header_payload_dimension_mismatch(tmp_path):
    # header claims 8 channels x 1000 samples, payload holds 7 rows
    path = tmp_path / "short.eegb"
    header = {"fs": 250, "channel_names": list(SMALL_CHANNELS), "unit": "uV",
              "events": []}
    write_container(path, header,
                    {"data": np.zeros((7, 1000), dtype=np.float32)})
    with pytest.raises(CorruptionError):
        load_recording(path)


def test_unparseable_header(tmp_path):
    path = tmp_path / "junk.eegb"
    raw = b"{not json"
    path.write_bytes(MAGIC + bytes([VERSION])
                     + struct.pack("<I", len(raw)) + raw)
    with pytest.raises(FormatError):
        load_recording(path)


def test_missing_header_key(tmp_path):
    path = tmp_path / "nokey.eegb"
    write_container(path, {"fs": 250},
                    {"data": np.zeros((1, 4), dtype=np.float32)})
    with pytest.raises(FormatError):
        load_recording(path)


def test_epochs_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    ep = EpochSet(np.array([0, 1, 2]),
                  rng.standard_normal((3, 8, 50)).astype(np.float32),
                  250, -500.0, source_trials=np.array([5, 6, 7]),
                  montage=Montage(SMALL_CHANNELS))
    path = tmp_path / "e.eegb"
    save_epochs(ep, path)
    back = load_epochs(path)
    assert back.fs == 250 and back.t0_ms == -500.0
    np.testing.assert_array_equal(back.labels, ep.labels)
    np.testing.assert_array_equal(back.source_trials, ep.source_trials)
    assert back.montage.channel_names == SMALL_CHANNELS
    assert back.tensor.tobytes() == ep.tensor.tobytes()


def test_epochs_dims_mismatch(tmp_path):
    path = tmp_path / "e.eegb"
    # the header claims a 2 x 8 x 50 tensor, the payload holds 2 x 8 x 49
    header = {"fs": 250, "t0_ms": 0.0, "labels": [0, 1]}
    write_container(path, header,
                    {"tensor": np.zeros((2, 8, 49), dtype=np.float32)})
    blob = path.read_bytes()
    assert blob.count(b"[2,8,49]") == 1
    path.write_bytes(blob.replace(b"[2,8,49]", b"[2,8,50]"))
    with pytest.raises(CorruptionError):
        load_epochs(path)


def test_epochs_labels_tensor_mismatch(tmp_path):
    path = tmp_path / "e.eegb"
    header = {"fs": 250, "t0_ms": 0.0, "labels": [0, 1, 2]}
    write_container(path, header,
                    {"tensor": np.zeros((2, 8, 50), dtype=np.float32)})
    with pytest.raises(CorruptionError):
        load_epochs(path)


def test_load_epochs_refuses_non_finite_samples(tmp_path):
    path = tmp_path / "e.eegb"
    tensor = np.zeros((2, 8, 50), dtype=np.float32)
    tensor[1, 4, 7] = np.nan
    save_epochs(EpochSet(np.array([0, 1]), tensor, 250, 0.0), path)
    with pytest.raises(DegenerateInputError, match="non-finite"):
        load_epochs(path)


def test_read_container_rejects_partial_float(tmp_path):
    path = tmp_path / "odd.eegb"
    write_container(path, {"x": 1}, {"a": np.zeros(2, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptionError):
        read_container(path)


def test_named_arrays_keep_their_dtype(tmp_path):
    rng = np.random.default_rng(2)
    arrays = {"f4": rng.standard_normal((3, 4)).astype(np.float32),
              "f8": rng.standard_normal(5),
              "i8": np.arange(6, dtype=np.int64).reshape(2, 3),
              "big": np.arange(3, dtype=">f8"),
              "scalar": np.float64(np.pi),
              "empty": np.zeros((0, 2))}
    path = tmp_path / "n.eegb"
    write_container(path, {"kind": "test"}, arrays)
    header, back = read_container(path)
    assert header == {"kind": "test"}
    assert list(back) == list(arrays)
    for name, a in arrays.items():
        a = np.asarray(a)
        assert back[name].dtype.str in DTYPES
        assert back[name].shape == a.shape
        np.testing.assert_array_equal(back[name], a)
    assert back["f4"].tobytes() == arrays["f4"].tobytes()
    assert back["f8"].tobytes() == arrays["f8"].tobytes()


@pytest.mark.parametrize("dtype", ["<i4", "|b1", "<c16", "<f2"])
def test_write_rejects_dtype_outside_allowlist(tmp_path, dtype):
    with pytest.raises(FormatError):
        write_container(tmp_path / "x.eegb", {},
                        {"a": np.zeros(2, dtype=dtype)})


def _raw_container(header: dict, payload: bytes) -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return MAGIC + bytes([VERSION]) + struct.pack("<I", len(raw)) + raw + payload


@pytest.mark.parametrize("arrays", [
    [["a", "<i4", [2]]],                      # dtype outside the allowlist
    [["a", "<f4", [-2]]],                     # negative dimension
    [["a", "<f4", [2.0]]],                    # non-integer dimension
    [["a", "<f4"]],                           # entry is not a triple
    [["a", "<f4", [1]], ["a", "<f4", [1]]],   # repeated name
    None,                                     # no array list
])
def test_read_rejects_bad_array_entries(tmp_path, arrays):
    path = tmp_path / "bad.eegb"
    header = {} if arrays is None else {"arrays": arrays}
    path.write_bytes(_raw_container(header, bytes(8)))
    with pytest.raises(FormatError):
        read_container(path)


def test_declared_sizes_must_sum_to_payload(tmp_path):
    path = tmp_path / "sum.eegb"
    header = {"arrays": [["a", "<f8", [2]], ["b", "<f4", [3]]]}
    path.write_bytes(_raw_container(header, bytes(2 * 8 + 3 * 4)))
    _, arrays = read_container(path)
    assert arrays["a"].shape == (2,) and arrays["b"].shape == (3,)
    for payload in (bytes(2 * 8 + 2 * 4), bytes(2 * 8 + 4 * 4)):
        path.write_bytes(_raw_container(header, payload))
        with pytest.raises(CorruptionError):
            read_container(path)


def _version1_recording(path):
    """A recording in the retired version-1 framing: flat float32 payload."""
    header = {"fs": 250, "channel_names": list(SMALL_CHANNELS), "unit": "uV",
              "n_samples": 4, "events": []}
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + bytes([1]) + struct.pack("<I", len(raw)) + raw
                     + np.zeros(8 * 4, dtype="<f4").tobytes())


def test_version1_file_is_format_error(tmp_path):
    path = tmp_path / "v1.eegb"
    _version1_recording(path)
    with pytest.raises(FormatError, match="version 1"):
        load_recording(path)
    with pytest.raises(FormatError):
        read_container(path)


def test_version1_file_is_cli_data_error(tmp_path):
    from vmidecode.cli import main
    _version1_recording(tmp_path / "recording.eegb")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1}))
    assert main(["--config", str(cfg), "--out", str(tmp_path),
                 "preprocess"]) == 3
