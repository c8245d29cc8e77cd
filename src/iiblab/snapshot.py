"""Binary state container: one JSON header line plus raw array payload.

Layout on disk:

* the first line is a UTF-8 JSON object terminated by a single newline,
  carrying format name and version, an endianness tag, the grid
  geometry, the time stamp, the array manifest, and free-form metadata;
* the payload follows immediately: for each manifest entry, the field's
  complex128 values little-endian as interleaved (re, im) float64
  pairs, component-major (the two matrix indices vary slowest) with
  nodes in row-major order inside each component block.

Offsets in the manifest are relative to the start of the payload, so
the header can be rewritten without touching array bytes.  Round trips
are bit exact because nothing is ever converted through text.  All
validation failures raise ``SnapshotFormatError`` whose ``offset``
field points at the first offending byte of the file.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import GridError, SnapshotFormatError
from .grid import TorusGrid

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "load_snapshot",
    "save_snapshot",
    "snapshot_info",
]

FORMAT_NAME = "iiblab-snapshot"
FORMAT_VERSION = 1
_MAX_HEADER = 1 << 20
_ITEM = 16  # bytes per complex128 value


def _pack(field: np.ndarray) -> bytes:
    moved = np.moveaxis(np.asarray(field, dtype=np.complex128), (-2, -1), (0, 1))
    return np.ascontiguousarray(moved).astype("<c16", copy=False).tobytes()


def save_snapshot(
    path,
    grid: TorusGrid,
    t: float,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
) -> None:
    """Write matrix fields (shape ``grid.shape + (n, n)``) to ``path``."""
    expect = grid.shape + (grid.n, grid.n)
    blobs: list[bytes] = []
    manifest = []
    offset = 0
    for name, field in arrays.items():
        field = np.asarray(field)
        if field.shape != expect:
            raise SnapshotFormatError(
                f"array {name!r} has shape {field.shape}, grid wants {expect}"
            )
        blob = _pack(field)
        manifest.append({"name": name, "offset": offset, "byteLength": len(blob)})
        blobs.append(blob)
        offset += len(blob)

    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "endianness": "little",
        "geometry": {
            "n": grid.n,
            "activeAxes": list(grid.active_axes),
            "resolution": grid.resolution,
        },
        "t": float(t),
        "arrays": manifest,
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)


def _read(path):
    """A snapshot file's bytes, checked header, grid and payload start.

    Every fault of the header itself is reported at offset 0; the manifest
    is checked against the geometry and the file size.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n", 0, _MAX_HEADER)
    if nl < 0:
        raise SnapshotFormatError(
            "no header terminator within the first megabyte", offset=0
        )
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise SnapshotFormatError(f"header is not valid JSON: {err}", offset=0)
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise SnapshotFormatError("missing format tag", offset=0)
    if header.get("version") != FORMAT_VERSION:
        raise SnapshotFormatError(
            f"unsupported version {header.get('version')!r}", offset=0
        )
    if header.get("endianness") != "little":
        raise SnapshotFormatError(
            f"unsupported endianness {header.get('endianness')!r}", offset=0
        )
    geo = header.get("geometry", {})
    try:
        grid = TorusGrid(
            int(geo["n"]),
            tuple(int(a) for a in geo["activeAxes"]),
            int(geo["resolution"]),
        )
    except (KeyError, TypeError, ValueError, GridError) as err:
        raise SnapshotFormatError(f"bad geometry block: {err}", offset=0)
    t = header.get("t")
    if type(t) not in (int, float) or not math.isfinite(t):
        raise SnapshotFormatError(f"time stamp {t!r} is not a finite number", offset=0)
    entries = header.get("arrays")
    if not isinstance(entries, list) or not entries or not all(
        isinstance(e, dict) and isinstance(e.get("name"), str)
        and type(e.get("offset")) is type(e.get("byteLength")) is int for e in entries
    ):
        raise SnapshotFormatError("manifest is not a list of arrays", offset=0)
    if len({e["name"] for e in entries}) != len(entries):
        raise SnapshotFormatError("manifest names an array twice", offset=0)

    body = nl + 1
    per_field = math.prod(grid.shape) * grid.n * grid.n * _ITEM
    cursor = 0
    for entry in entries:
        off, length = entry["offset"], entry["byteLength"]
        if off != cursor:
            raise SnapshotFormatError(
                f"array {entry['name']!r} offset {off} breaks contiguity,"
                f" expected {cursor}",
                offset=body + cursor,
            )
        if length != per_field:
            raise SnapshotFormatError(
                f"array {entry['name']!r} length {length} != {per_field}"
                " for this geometry",
                offset=body + cursor,
            )
        cursor += length
    if len(raw) != body + cursor:
        raise SnapshotFormatError(
            f"file holds {len(raw)} bytes, header implies {body + cursor}",
            offset=min(len(raw), body + cursor),
        )
    return raw, header, grid, body


def load_snapshot(path):
    """Read a snapshot; returns ``(grid, t, arrays, meta)``."""
    raw, header, grid, body = _read(path)
    arrays: dict[str, np.ndarray] = {}
    shape = (grid.n, grid.n) + grid.shape
    for entry in header["arrays"]:
        start = body + entry["offset"]
        flat = np.frombuffer(raw, dtype="<c16", count=entry["byteLength"] // _ITEM,
                             offset=start)
        arrays[entry["name"]] = np.moveaxis(
            flat.reshape(shape), (0, 1), (-2, -1)
        ).copy()
    return grid, float(header["t"]), arrays, header.get("meta", {})


def snapshot_info(path) -> dict:
    """Header summary without decoding the payload (size still checked)."""
    raw, header, _, body = _read(path)
    return {
        "geometry": header["geometry"],
        "t": header["t"],
        "arrays": [
            {k: e[k] for k in ("name", "offset", "byteLength")}
            for e in header["arrays"]
        ],
        "meta": header.get("meta", {}),
        "payloadBytes": len(raw) - body,
    }
