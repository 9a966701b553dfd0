"""EEGB on-disk container.

Layout: 4-byte magic "EEGB", 1-byte version (2), u32 little-endian length of
a UTF-8 JSON header, the header, then the payload. The header's "arrays"
entry lists [name, dtype, shape] for each stored array; the payload is
their raw little-endian bytes, back to back in that order. Dtypes are
limited to float32, float64 and int64. A recording is one float32 array
"data" (channels x samples), an epoch set one float32 array "tensor"
(trials x channels x samples); model checkpoints store their parameters by
name in their own dtype. Round trips are bit-exact.
"""

import json
import math
import struct

import numpy as np

from .core import EegRecording, EpochSet, Montage, require_finite
from .errors import CorruptionError, FormatError

MAGIC = b"EEGB"
VERSION = 2
DTYPES = ("<f4", "<f8", "<i8")


def write_container(path, header: dict, arrays: dict) -> None:
    """Write a header dict plus named arrays in EEGB framing."""
    arrays = {name: np.asarray(a, np.asarray(a).dtype.newbyteorder("<"))
              for name, a in arrays.items()}
    for name, a in arrays.items():
        if a.dtype.str not in DTYPES:
            raise FormatError(f"array {name!r}: dtype {a.dtype.str} "
                              f"not one of {DTYPES}")
    header = {**header, "arrays": [[name, a.dtype.str, list(a.shape)]
                                   for name, a in arrays.items()]}
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(bytes([VERSION]))
        f.write(struct.pack("<I", len(raw)))
        f.write(raw)
        for a in arrays.values():
            f.write(a.tobytes())


def _array_specs(path, header) -> list:
    """Validated (name, dtype, shape) triples from the header's "arrays"."""
    try:
        specs = [(name, dtype, tuple(shape))
                 for name, dtype, shape in header.pop("arrays")]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: header lacks a valid \"arrays\" list") from e
    names = [name for name, _, _ in specs]
    for name, dtype, shape in specs:
        if (not isinstance(name, str) or names.count(name) > 1
                or dtype not in DTYPES
                or not all(type(d) is int and d >= 0 for d in shape)):
            raise FormatError(f"{path}: bad array entry "
                              f"{[name, dtype, list(shape)]!r}")
    return [(name, np.dtype(dtype), shape) for name, dtype, shape in specs]


def read_container(path):
    """Read (header, {name: array}) from an EEGB file."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 9 or blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic, not an EEGB container")
    if blob[4] != VERSION:
        raise FormatError(f"{path}: unsupported version {blob[4]}")
    (hlen,) = struct.unpack_from("<I", blob, 5)
    if 9 + hlen > len(blob):
        raise CorruptionError(f"{path}: truncated header")
    try:
        header = json.loads(blob[9:9 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: unreadable header: {e}") from e
    specs = _array_specs(path, header)
    body = blob[9 + hlen:]
    sizes = [dtype.itemsize * math.prod(shape) for _, dtype, shape in specs]
    if sum(sizes) != len(body):
        raise CorruptionError(f"{path}: header declares {sum(sizes)} payload "
                              f"bytes, file holds {len(body)}")
    arrays = {}
    offset = 0
    for (name, dtype, shape), size in zip(specs, sizes):
        arrays[name] = np.frombuffer(body, dtype, size // dtype.itemsize,
                                     offset).reshape(shape)
        offset += size
    return header, arrays


def _array(path, arrays: dict, name: str, ndim: int) -> np.ndarray:
    if name not in arrays:
        raise FormatError(f"{path}: no array {name!r}")
    if arrays[name].ndim != ndim:
        raise FormatError(f"{path}: array {name!r} must be {ndim}-D")
    return arrays[name]


def save_recording(rec: EegRecording, path) -> None:
    header = {
        "fs": int(rec.fs),
        "channel_names": list(rec.montage.channel_names),
        "unit": "uV",
        "events": [{"sample": s, "label": l} for s, l in rec.events],
    }
    write_container(path, header, {"data": np.asarray(rec.data, "<f4")})


def load_recording(path) -> EegRecording:
    header, arrays = read_container(path)
    for key in ("fs", "channel_names", "events"):
        if key not in header:
            raise FormatError(f"{path}: header missing {key!r}")
    data = _array(path, arrays, "data", 2)
    names = header["channel_names"]
    if data.shape[0] != len(names):
        raise CorruptionError(
            f"{path}: header names {len(names)} channels, "
            f"data holds {data.shape[0]} rows"
        )
    events = [(e["sample"], e["label"]) for e in header["events"]]
    try:
        return EegRecording(Montage(tuple(names)), int(header["fs"]), data, events)
    except ValueError as e:
        raise CorruptionError(f"{path}: {e}") from e


def save_epochs(epochs: EpochSet, path) -> None:
    header = {
        "fs": int(epochs.fs),
        "t0_ms": float(epochs.t0_ms),
        "labels": [int(l) for l in epochs.labels],
        "source_trials": [int(s) for s in epochs.source_trials],
    }
    if epochs.montage is not None:
        header["channel_names"] = list(epochs.montage.channel_names)
    write_container(path, header, {"tensor": np.asarray(epochs.tensor, "<f4")})


def load_epochs(path) -> EpochSet:
    header, arrays = read_container(path)
    for key in ("fs", "t0_ms", "labels"):
        if key not in header:
            raise FormatError(f"{path}: header missing {key!r}")
    tensor = _array(path, arrays, "tensor", 3)
    require_finite(tensor, f"{path}: epochs")
    montage = None
    if "channel_names" in header:
        montage = Montage(tuple(header["channel_names"]))
    src = header.get("source_trials")
    try:
        return EpochSet(
            np.asarray(header["labels"]), tensor,
            int(header["fs"]), float(header["t0_ms"]),
            source_trials=None if src is None else np.asarray(src),
            montage=montage,
        )
    except ValueError as e:
        raise CorruptionError(f"{path}: {e}") from e
