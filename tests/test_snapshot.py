"""Snapshot container: bit-exact round trips and hostile-input offsets."""

import json

import numpy as np
import pytest

from iiblab import SnapshotFormatError, TorusGrid, load_snapshot, save_snapshot, snapshot_info
from iiblab.metrics import random_band_metric

GRID = TorusGrid(3, (0, 1), 8)


def _nodes_bytes(grid):
    nodes = 1
    for extent in grid.shape:
        nodes *= extent
    return nodes * grid.n * grid.n * 16


def test_round_trip_is_bit_exact(tmp_path):
    g = random_band_metric(GRID, seed=7)
    # poke in values that stress the encoding: negative zero, tiny, huge
    g = g.copy()
    g[0, 0, 0, 1] = complex(-0.0, 5e-324)
    g[1, 2, 2, 0] = complex(1e300, -1e-300)
    path = tmp_path / "state.snap"
    save_snapshot(path, GRID, 0.125, {"metric": g}, meta={"formulation": "weighted"})
    grid2, t, arrays, meta = load_snapshot(path)
    assert grid2.n == GRID.n
    assert grid2.active_axes == GRID.active_axes
    assert grid2.resolution == GRID.resolution
    assert t == 0.125
    assert meta == {"formulation": "weighted"}
    out = arrays["metric"]
    assert out.dtype == np.complex128
    assert out.shape == g.shape
    assert np.array_equal(out, g)
    # sign of zero and subnormals survive too
    assert np.signbit(out[0, 0, 0, 1].real)
    assert out[0, 0, 0, 1].imag == 5e-324


def test_multiple_arrays_keep_order_and_content(tmp_path):
    a = random_band_metric(GRID, seed=1)
    b = random_band_metric(GRID, seed=2)
    path = tmp_path / "pair.snap"
    save_snapshot(path, GRID, 1.0, {"metric": a, "source": b})
    _, _, arrays, _ = load_snapshot(path)
    assert np.array_equal(arrays["metric"], a)
    assert np.array_equal(arrays["source"], b)
    info = snapshot_info(path)
    names = [e["name"] for e in info["arrays"]]
    assert names == ["metric", "source"]
    assert info["payloadBytes"] == 2 * _nodes_bytes(GRID)
    assert info["geometry"] == {"n": 3, "activeAxes": [0, 1], "resolution": 8}


def test_loaded_arrays_are_writable_copies(tmp_path):
    g = random_band_metric(GRID, seed=3)
    path = tmp_path / "w.snap"
    save_snapshot(path, GRID, 0.0, {"metric": g})
    _, _, arrays, _ = load_snapshot(path)
    arrays["metric"][0, 0, 0, 0] = 42.0  # must not raise: frombuffer views are read-only
    assert arrays["metric"][0, 0, 0, 0] == 42.0


def test_save_rejects_wrong_shape(tmp_path):
    bad = np.zeros(GRID.shape + (2, 2), dtype=complex)
    with pytest.raises(SnapshotFormatError):
        save_snapshot(tmp_path / "bad.snap", GRID, 0.0, {"metric": bad})


def test_corrupt_header_reports_offset_zero(tmp_path):
    g = random_band_metric(GRID, seed=4)
    path = tmp_path / "c.snap"
    save_snapshot(path, GRID, 0.0, {"metric": g})
    raw = path.read_bytes()
    (tmp_path / "nojson.snap").write_bytes(b"not json at all\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(SnapshotFormatError) as err:
        load_snapshot(tmp_path / "nojson.snap")
    assert err.value.offset == 0

    (tmp_path / "nonl.snap").write_bytes(b"x" * 64)
    with pytest.raises(SnapshotFormatError) as err:
        load_snapshot(tmp_path / "nonl.snap")
    assert err.value.offset == 0


def test_wrong_version_and_endianness_rejected(tmp_path):
    g = random_band_metric(GRID, seed=5)
    path = tmp_path / "v.snap"
    save_snapshot(path, GRID, 0.0, {"metric": g})
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)

    for field, value in [("version", 99), ("endianness", "big"), ("format", "other")]:
        mutated = dict(header)
        mutated[field] = value
        p = tmp_path / f"{field}.snap"
        p.write_bytes(json.dumps(mutated, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(SnapshotFormatError) as err:
            load_snapshot(p)
        assert err.value.offset == 0


def test_truncated_payload_points_at_end_of_file(tmp_path):
    g = random_band_metric(GRID, seed=6)
    path = tmp_path / "t.snap"
    save_snapshot(path, GRID, 0.0, {"metric": g})
    raw = path.read_bytes()
    cut = tmp_path / "cut.snap"
    cut.write_bytes(raw[:-100])
    with pytest.raises(SnapshotFormatError) as err:
        load_snapshot(cut)
    assert err.value.offset == len(raw) - 100


def test_manifest_contiguity_break_points_into_payload(tmp_path):
    g = random_band_metric(GRID, seed=8)
    path = tmp_path / "m.snap"
    save_snapshot(path, GRID, 0.0, {"metric": g})
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["arrays"][0]["offset"] = 16
    head2 = json.dumps(header, sort_keys=True).encode() + b"\n"
    p = tmp_path / "gap.snap"
    p.write_bytes(head2 + payload)
    with pytest.raises(SnapshotFormatError) as err:
        load_snapshot(p)
    assert err.value.offset == len(head2)


def test_bad_geometry_rejected(tmp_path):
    g = random_band_metric(GRID, seed=9)
    path = tmp_path / "g.snap"
    save_snapshot(path, GRID, 0.0, {"metric": g})
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["geometry"]["resolution"] = 7  # not a power of two
    p = tmp_path / "badgeo.snap"
    p.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    with pytest.raises(SnapshotFormatError) as err:
        load_snapshot(p)
    assert err.value.offset == 0


def test_snapshot_info_detects_size_mismatch(tmp_path):
    g = random_band_metric(GRID, seed=10)
    path = tmp_path / "i.snap"
    save_snapshot(path, GRID, 0.0, {"metric": g})
    grown = tmp_path / "grown.snap"
    grown.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(SnapshotFormatError):
        snapshot_info(grown)


@pytest.mark.parametrize("reader", [load_snapshot, snapshot_info])
@pytest.mark.parametrize("change", [
    lambda h: h.pop("t"),
    lambda h: h.pop("geometry"),
    lambda h: h.__setitem__("arrays", 5),
    lambda h: h.__setitem__("arrays", ["x"]),
    lambda h: h.__setitem__("t", "abc"),
    lambda h: h.__setitem__("t", float("nan")),
    lambda h: h["arrays"][0].pop("name"),
    lambda h: h["arrays"][0].__setitem__("offset", 0.0),
    lambda h: h["arrays"][1].__setitem__("name", "metric"),
], ids=["no-t", "no-geometry", "arrays-5", "arrays-x", "t-abc", "t-nan", "no-name",
        "float-offset", "duplicate-name"])
def test_malformed_header_is_a_format_error_for_both_readers(tmp_path, reader, change):
    path = tmp_path / "h.snap"
    g = random_band_metric(GRID, seed=11)
    save_snapshot(path, GRID, 0.0, {"metric": g, "phi": 2.0 * g})
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    change(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(SnapshotFormatError) as err:
        reader(path)
    assert err.value.offset == 0
