"""Named-parameter collections and the binary checkpoint format.

Layout: 8-byte magic "VG2SCKPT", 8-byte little-endian manifest length, the
UTF-8 JSON manifest [{name, shape, byte_offset}], then one little-endian
float64 blob holding all parameters back to back.  Round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .autodiff import Parameter

MAGIC = b"VG2SCKPT"


class ParamStore:
    """Ordered mapping of dotted names (e.g. "encoder.embed.w") to Parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, data) -> Parameter:
        if name in self._params:
            raise KeyError(f"duplicate parameter name {name!r}")
        p = Parameter(np.asarray(data, dtype=np.float64))
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def section(self, prefix: str) -> list[Parameter]:
        return [p for name, p in self._params.items() if name.startswith(prefix)]

    def update(self, other: "ParamStore", prefixes: tuple[str, ...] = ("",)) -> None:
        """Copy in the values of every parameter under `prefixes` from
        `other`, which must hold exactly this store's names under them, each
        in its shape.  Otherwise nothing is copied and ValueError names the
        first offender: a name `other` lacks, then, in `other`'s order, a
        name this store lacks or holds in another shape."""
        for name in self._params:
            if name.startswith(prefixes) and name not in other._params:
                raise ValueError(f"missing parameter {name!r}")
        for name, p in other._params.items():
            if not name.startswith(prefixes):
                continue
            if name not in self._params:
                raise ValueError(f"unknown parameter {name!r}")
            have, want = p.data.shape, self._params[name].data.shape
            if have != want:
                raise ValueError(f"shape mismatch for {name!r}: {have}, expected {want}")
        for name, p in self._params.items():
            if name.startswith(prefixes):
                p.data[...] = other._params[name].data


def _non_finite(path, store: ParamStore) -> ValueError:
    """The ValueError naming every parameter of `store` that holds a
    non-finite value."""
    bad = [name for name in store.names() if not np.isfinite(store[name].data).all()]
    return ValueError(f"{path}: non-finite values in {', '.join(map(repr, bad)) or 'the blob'}")


def save_checkpoint(store: ParamStore, path) -> None:
    """Write the store; a non-finite parameter raises ValueError naming it,
    and no file is written."""
    manifest = []
    blob = bytearray()
    for name in store.names():
        data = np.ascontiguousarray(store[name].data, dtype="<f8")
        manifest.append({
            "name": name,
            "shape": list(data.shape),
            "byte_offset": len(blob),
        })
        blob.extend(data.tobytes())
    if not np.isfinite(np.frombuffer(blob, dtype="<f8")).all():
        raise _non_finite(path, store)
    header = json.dumps(manifest, separators=(",", ":"), sort_keys=False).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(bytes(blob))


def _entry(path, entry) -> tuple[str, tuple[int, ...], int]:
    """(name, shape, byte_offset) of one manifest entry; a malformed one
    raises ValueError naming the file."""
    if not isinstance(entry, dict) or not {"name", "shape", "byte_offset"} <= entry.keys():
        raise ValueError(f"{path}: manifest entry {entry!r} lacks a name, shape or byte_offset")
    name, shape, off = entry["name"], entry["shape"], entry["byte_offset"]

    def size(x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and x >= 0

    if not isinstance(name, str):
        raise ValueError(f"{path}: parameter name {name!r} is not a string")
    if not (isinstance(shape, list) and all(size(dim) for dim in shape)):
        raise ValueError(f"{path}: parameter {name!r} has shape {shape!r}, "
                         f"not a list of sizes >= 0")
    if not size(off):
        raise ValueError(f"{path}: parameter {name!r} has byte_offset {off!r}, "
                         f"not an integer >= 0")
    return name, tuple(shape), off


def load_checkpoint(path) -> ParamStore:
    """Read a checkpoint; a file that is not a whole, well-formed one, or
    that holds a non-finite parameter, raises ValueError naming it."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated header")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    try:
        manifest = json.loads(raw[16:16 + hlen].decode())
    except (ValueError, RecursionError) as exc:  # also cut, garbled UTF-8 or nested too deep
        raise ValueError(f"{path}: unreadable manifest ({exc})") from None
    if not isinstance(manifest, list):
        raise ValueError(f"{path}: manifest is not a list of parameter entries")
    blob = raw[16 + hlen:]
    store = ParamStore()
    for entry in manifest:
        name, shape, off = _entry(path, entry)
        count = math.prod(shape)
        if off > len(blob) - 8 * count:
            raise ValueError(f"{path}: parameter {name!r} lies outside the file")
        if name in store:
            raise ValueError(f"{path}: parameter {name!r} appears twice")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
        store.add(name, arr.astype(np.float64))
    # One pass over the whole blob; only a failure looks for the culprits.
    if not np.isfinite(np.frombuffer(blob, dtype="<f8", count=len(blob) // 8)).all():
        raise _non_finite(path, store)
    return store
