"""EEGB on-disk container, and the writer of every text artifact.

Layout: 4-byte magic "EEGB", 1-byte version (2), u32 little-endian length of
a UTF-8 JSON header, the header, then the payload. The header's "arrays"
entry lists [name, dtype, shape] for each stored array; the payload is
their raw little-endian bytes, back to back in that order. Dtypes are
limited to float32, float64 and int64. A recording is one float32 array
"data" (channels x samples), an epoch set one float32 array "tensor"
(trials x channels x samples); model checkpoints store their parameters by
name in their own dtype. Round trips are bit-exact. The payload is written
from each array's own buffer and read with one copy, the file's, which the
arrays view. Each loader reads exactly the layout its writer writes: a
header without one of its keys, or arrays of other names, shapes or dtypes,
is a FormatError, and a header value of the wrong JSON type, or one that
the type owning it refuses, a CorruptionError.
"""

import contextlib
import json
import math
import struct

import numpy as np

from .core import EegRecording, EpochSet, Montage, require_finite
from .errors import CorruptionError, FormatError

MAGIC = b"EEGB"
VERSION = 2
DTYPES = ("<f4", "<f8", "<i8")


def write_text(path, text: str) -> None:
    """Write a text artifact (CSV, JSON, a name list) as UTF-8 with LF line
    ends, whatever the host's locale and platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


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
        f.write(MAGIC + bytes([VERSION]) + struct.pack("<I", len(raw)) + raw)
        for a in arrays.values():
            f.write(np.ascontiguousarray(a).data)


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


def read_container(path, kind=None):
    """Read (header, {name: array}) from an EEGB file; given a kind, the
    header's "kind" must be it."""
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
    if kind is not None and header.get("kind") != kind:
        raise FormatError(f"{path}: not a {kind}")
    body = memoryview(blob)[9 + hlen:]
    sizes = [dtype.itemsize * math.prod(shape) for _, dtype, shape in specs]
    if sum(sizes) != len(body):
        raise CorruptionError(f"{path}: header declares {sum(sizes)} payload "
                              f"bytes, file holds {len(body)}")
    starts = np.cumsum([0] + sizes)
    return header, {name: np.frombuffer(body, dtype, size // dtype.itemsize,
                                        int(start)).reshape(shape)
                    for (name, dtype, shape), size, start
                    in zip(specs, sizes, starts)}


@contextlib.contextmanager
def refusing(path):
    """Raise what building an object from path's header raises as a data
    error that names path: a missing key as a FormatError; a value of the
    wrong JSON type, or one that the object's type refuses, as a
    CorruptionError."""
    try:
        yield
    except KeyError as e:
        raise FormatError(f"{path}: header lacks key {e}") from e
    except (AttributeError, TypeError) as e:
        raise CorruptionError(f"{path}: a header value of the wrong type "
                              f"({e})") from e
    except ValueError as e:
        raise CorruptionError(f"{path}: {e}") from e


def check_arrays(path, arrays: dict, shapes: dict, dtype=None) -> None:
    """Raise a FormatError naming path unless arrays are exactly those of
    shapes, {name: shape}, by name and shape (an axis None in a shape may
    have any length) and, given a dtype, are all of it."""
    def fits(name):
        a, want = arrays.get(name), shapes.get(name)
        return (a is not None and want is not None and a.ndim == len(want)
                and all(w in (None, n) for n, w in zip(a.shape, want))
                and (dtype is None or a.dtype == dtype))
    odd = sorted(k for k in shapes.keys() | arrays.keys() if not fits(k))
    if odd:
        raise FormatError(f"{path}: arrays {odd} are not the layout's by "
                          f"name, shape and dtype")


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
    check_arrays(path, arrays, {"data": (None, None)}, np.float32)
    with refusing(path):
        return EegRecording(
            Montage(header["channel_names"]), header["fs"], arrays["data"],
            [(e["sample"], e["label"]) for e in header["events"]])


def save_epochs(epochs: EpochSet, path) -> None:
    header = {
        "fs": int(epochs.fs),
        "t0_ms": float(epochs.t0_ms),
        "labels": [int(l) for l in epochs.labels],
        "source_trials": [int(s) for s in epochs.source_trials],
        "channel_names": list(epochs.montage.channel_names),
    }
    write_container(path, header, {"tensor": np.asarray(epochs.tensor, "<f4")})


def load_epochs(path) -> EpochSet:
    header, arrays = read_container(path)
    check_arrays(path, arrays, {"tensor": (None, None, None)}, np.float32)
    tensor = arrays["tensor"]
    require_finite(tensor, f"{path}: epochs")
    with refusing(path):
        return EpochSet(header["labels"], tensor, header["fs"],
                        header["t0_ms"], header.get("source_trials"),
                        Montage(header["channel_names"]))
