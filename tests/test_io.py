"""EEGB container: round trips, framing, corruption detection."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from vmidecode import (CspLdaClassifier, EegRecording, EpochSet, Montage,
                       Network, TrainConfig, load_epochs, load_network,
                       load_recording, save_epochs, save_network,
                       save_recording)
from vmidecode.csp import load_csp_lda, save_csp_lda
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


def test_epochs_channel_names_must_match_the_tensor(tmp_path):
    path = tmp_path / "e.eegb"
    header = {"fs": 250, "t0_ms": 0.0, "labels": [0, 1],
              "channel_names": ["Fp1", "Fp2"]}
    write_container(path, header,
                    {"tensor": np.zeros((2, 3, 50), dtype=np.float32)})
    with pytest.raises(CorruptionError):
        load_epochs(path)


def test_recording_channel_name_with_a_comma_is_corruption(tmp_path):
    path = tmp_path / "r.eegb"
    write_container(path, {"fs": 250, "channel_names": ["Cz", "P,z"],
                           "events": []},
                    {"data": np.zeros((2, 50), dtype=np.float32)})
    with pytest.raises(CorruptionError, match="channel name"):
        load_recording(path)


@pytest.mark.parametrize("fs", [250.5, 0, "250"])
def test_a_file_whose_fs_is_not_an_integer_is_corruption(tmp_path, fs):
    # int() made a header fs of 250.5 a recording or epochs of 250 Hz
    rec, ep = tmp_path / "r.eegb", tmp_path / "e.eegb"
    write_container(rec, {"fs": fs, "channel_names": ["Cz"], "events": []},
                    {"data": np.zeros((1, 50), dtype=np.float32)})
    write_container(ep, {"fs": fs, "t0_ms": 0.0, "labels": [0],
                         "channel_names": ["Cz"]},
                    {"tensor": np.zeros((1, 1, 50), dtype=np.float32)})
    for load, path in ((load_recording, rec), (load_epochs, ep)):
        with pytest.raises(CorruptionError, match="fs must be an integer"):
            load(path)


def test_epochs_labels_tensor_mismatch(tmp_path):
    path = tmp_path / "e.eegb"
    header = {"fs": 250, "t0_ms": 0.0, "labels": [0, 1, 2],
              "channel_names": list(SMALL_CHANNELS)}
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
              "empty": np.zeros((0, 2)),
              "empty_big": np.zeros((2, 0), dtype=">f4"),
              "strided": rng.standard_normal((4, 6))[:, ::2],
              "fortran": np.asfortranarray(rng.standard_normal((3, 5))),
              "big_strided": np.arange(12, dtype=">i8").reshape(3, 4)[::2]}
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
        assert back[name].tobytes() == a.astype(
            a.dtype.newbyteorder("<")).tobytes()


def test_the_payload_is_copied_once(tmp_path):
    data = np.random.default_rng(3).standard_normal((4, 1 << 19))
    rec = EegRecording(Montage(SMALL_CHANNELS[:4]), 250,
                       data.astype(np.float32), [])
    path = tmp_path / "big.eegb"
    tracemalloc.start()
    try:
        save_recording(rec, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_recording(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.data.nbytes >= 8 << 20
    assert save_peak < rec.data.nbytes
    assert load_peak <= 1.2 * rec.data.nbytes
    assert back.data.tobytes() == rec.data.tobytes()


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


# ---------------------------------------------------------------------------
# Each loader reads exactly its writer's layout

def _recording_file(path):
    save_recording(_recording(), path)


def _epochs_file(path):
    rng = np.random.default_rng(2)
    save_epochs(EpochSet(np.arange(8) % 4,
                         rng.standard_normal((8, 8, 50)).astype(np.float32),
                         250, -500.0, montage=Montage(SMALL_CHANNELS)), path)


def _network_file(path):
    from conftest import reduced_model_spec
    save_network(Network(reduced_model_spec(dropout=0.25), seed=6), path,
                 TrainConfig(epochs=2, seed=6))


def _csp_file(path):
    rng = np.random.default_rng(3)
    # 4 channels, so that another header m changes the models' shapes
    windows = EpochSet(np.arange(16) % 4, rng.standard_normal((16, 4, 100)),
                       250, 0.0)
    save_csp_lda(CspLdaClassifier(m=1).fit(windows), path)


KINDS = {"recording": (_recording_file, load_recording),
         "epochs": (_epochs_file, load_epochs),
         "network": (_network_file, load_network),
         "csp": (_csp_file, load_csp_lda)}
REQUIRED = {"recording": ("fs", "channel_names", "events"),
            "epochs": ("fs", "t0_ms", "labels", "channel_names"),
            "network": ("kind", "seed", "n_channels", "input_samples",
                        "layers"),
            "csp": ("kind", "m", "classes")}


def _set(key, value):
    return lambda header, arrays: header.update({key: value})


def _set_layer(kind, field, value):
    def mutate(header, arrays):
        next(d for d in header["layers"] if d["kind"] == kind)[field] = value
    return mutate


def _add_strides(header, arrays):
    # LayerSpec had a stride field before the kind implied it
    for d in header["layers"]:
        d["stride"] = d["kernel"] if d["kind"] == "avgpool" else [1, 1]


def _add_conv_biases(header, arrays):
    # every conv had a bias "b" after its weights "w", shifting the
    # positions of the arrays after it
    named = []
    for key, a in arrays.items():
        named.append((key.partition(".")[2], a))
        if named[-1][0] == "w" and a.ndim == 4:
            named.append(("b", np.zeros(len(a), np.float32)))
    arrays.clear()
    arrays.update({f"{i}.{name}": a for i, (name, a) in enumerate(named)})


def _one_channel_models(header, arrays):
    # models on one channel, whose m would clamp to 1 // 2 = 0 filters;
    # a fit refuses them, and so must the loader
    for i in range(len(header["classes"])):
        arrays.update({f"{i}.filters": np.zeros((0, 1)),
                       f"{i}.eigenvalues": np.zeros(0),
                       f"{i}.weights": np.zeros((2, 0))})


def _refusals():
    """(loaded kind, the kind of file it is given, the case, how the file is
    changed, the error) for every other layout."""
    rows = [(kind, other, f"given-{other}", None, FormatError)
            for kind in KINDS for other in KINDS if other != kind]
    rows += [(kind, kind, f"without-{key}",
              lambda header, arrays, key=key: header.pop(key), FormatError)
             for kind, keys in REQUIRED.items() for key in keys]
    corrupt = {
        "recording": {
            "fs-a-string": _set("fs", "250"),
            "channel_names-a-string": _set("channel_names", "abcdefgh"),
            "events-a-string": _set("events", "x"),
            "events-pairs": _set("events", [[0, 1]]),
            "event-sample-not-an-integer": _set(
                "events", [{"sample": 10.7, "label": 1}]),
            "event-label-not-an-integer": _set(
                "events", [{"sample": 10, "label": 1.9}]),
        },
        "epochs": {
            "fs-a-string": _set("fs", "250"),
            "t0_ms-a-string": _set("t0_ms", "-500"),
            "labels-not-integers": _set("labels", [0.5, 1.9] * 4),
            "labels-a-string": _set("labels", "x"),
            "channel_names-a-string": _set("channel_names", "abcdefgh"),
            "source_trials-a-string": _set("source_trials", "x"),
            "source_trials-not-integers": _set("source_trials",
                                               [0.5, 1.9] * 4),
        },
        "network": {
            "seed-a-string": _set("seed", "x"),
            "n_channels-a-string": _set("n_channels", "x"),
            "input_samples-a-string": _set("input_samples", "x"),
            "layers-a-string": _set("layers", "x"),
            "a-layer-a-number": lambda header, arrays: header["layers"]
            .insert(0, 5),
            "a-kernel-a-string": _set_layer("conv", "kernel", "x"),
            "a-rate-a-string": _set_layer("dropout", "rate", "x"),
        },
        "csp": {
            "m-a-string": _set("m", "x"),
            "classes-a-string": _set("classes", "x"),
            "classes-not-integers": _set("classes", [0.5, 1, 2, 3]),
            "classes-repeated": _set("classes", [0, 1, 1, 3]),
        },
    }
    rows += [(kind, kind, name, mutate, CorruptionError)
             for kind, cases in corrupt.items()
             for name, mutate in cases.items()]
    # the writers write one float32 array; a stray array or a float64
    # payload was loaded
    rows += [(kind, kind, case, mutate, FormatError)
             for kind, name in (("recording", "data"), ("epochs", "tensor"))
             for case, mutate in (
                 ("a-stray-array", lambda header, arrays: arrays.update(
                     {"extra": np.zeros(2, np.float32)})),
                 (f"{name}-float64", lambda header, arrays, name=name:
                  arrays.update({name: arrays[name].astype(np.float64)})))]
    rows += [
        ("recording", "recording", "an-event-without-a-label",
         _set("events", [{"sample": 10}]), FormatError),
        ("network", "network", "layers-with-strides", _add_strides,
         FormatError),
        ("network", "network", "conv-biases", _add_conv_biases, FormatError),
        ("network", "network", "a-leftover-bias",
         lambda header, arrays: arrays.update(
             {"1.b": np.zeros(8, np.float32)}), FormatError),
        ("network", "network", "an-array-missing",
         lambda header, arrays: arrays.pop("0.w"), FormatError),
        ("network", "network", "an-array-of-another-shape",
         lambda header, arrays: arrays.update({"0.w": arrays["0.w"][:-1]}),
         FormatError),
    ]
    csp = {
        "another-m": _set("m", 3),
        "filters-without-a-column": lambda header, arrays: arrays.update(
            {"0.filters": arrays["0.filters"][:, :-1].copy()}),
        "a-model-on-other-channels": lambda header, arrays: arrays.update(
            {"1.filters": arrays["1.filters"][:, :-1].copy()}),
        "weights-cut-to-one-column": lambda header, arrays: arrays.update(
            {"0.weights": arrays["0.weights"][:, :1].copy()}),
        "models-on-one-channel": _one_channel_models,
        "an-array-missing": lambda header, arrays: arrays.pop("3.priors"),
        "a-stray-array": lambda header, arrays: arrays.update(
            {"9.extra": np.zeros(2)}),
    }
    rows += [("csp", "csp", name, mutate, FormatError)
             for name, mutate in csp.items()]
    return [pytest.param(*row, id=f"{row[0]}-{row[2]}") for row in rows]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """One file of each kind, as its writer writes it."""
    folder = tmp_path_factory.mktemp("written")
    for kind, (write, _) in KINDS.items():
        write(folder / f"{kind}.eegb")
    return folder


@pytest.mark.parametrize("kind", KINDS)
def test_each_loader_reads_what_its_writer_writes(written, kind):
    KINDS[kind][1](written / f"{kind}.eegb")


@pytest.mark.parametrize("kind,source,case,mutate,error", _refusals())
def test_each_loader_refuses_any_other_layout(written, tmp_path, kind, source,
                                              case, mutate, error):
    header, arrays = read_container(written / f"{source}.eegb")
    if mutate is not None:
        arrays = dict(arrays)
        mutate(header, arrays)
    path = tmp_path / "x.eegb"
    write_container(path, header, arrays)
    with pytest.raises(error) as e:
        KINDS[kind][1](path)
    assert str(path) in str(e.value)
