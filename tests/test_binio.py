"""The one artifact container: every kind round-trips bit for bit, and
foreign, outdated, mislabeled or damaged files raise DataError naming the file."""

import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from walkforge import _binio, baselines, indicators, nets
from walkforge.errors import DataError
from walkforge.ingest import synthesize


def assert_same_bits(a, b):
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            assert_same_bits(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bits(x, y)
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    else:
        assert a == b


def make_svr(n_support=4):
    rng = np.random.default_rng(3)
    return baselines.SvrModel(
        support_vectors=rng.normal(size=(n_support, 3)), dual_coef=rng.normal(size=n_support),
        bias=0.1 + 0.2, gamma=1e308, c=5e-324, epsilon=float("nan"), tol=1e-300,
        max_iter=2**53 + 1,
        support_idx=np.array([0, 2, 5, 9][:n_support], dtype=np.int64),
        converged=False, iterations=12345, dual_objective=-2381.9731234567891,
    )


KINDS = {
    "lstm": (nets.save_network, nets.load_network,
             lambda: nets.build_network(3, 3, 4, 0.25, bidirectional=False, seed=1)),
    "bilstm": (nets.save_network, nets.load_network,
               lambda: nets.build_network(3, 3, 4, 0.25, bidirectional=True, seed=2)),
    "bilstm32": (nets.save_network, nets.load_network,  # as the pipeline trains them
                 lambda: nets.build_network(3, 3, 4, 0.25, bidirectional=True, seed=2,
                                            dtype=np.float32)),
    "linear": (baselines.save_linear, baselines.load_linear,
               lambda: baselines.LinearModel(weights=np.array([1.5, -0.1, 1e-300]),
                                             bias=-0.7)),
    "svr": (baselines.save_svr, baselines.load_svr, make_svr),
    # a flat tube needs none: its (0, 3) support vectors hold no bytes
    "svr0": (baselines.save_svr, baselines.load_svr, lambda: make_svr(0)),
    "features": (indicators.save_cache, indicators.load_cache,
                 lambda: indicators.expand_features(synthesize(70, seed=5), (7, 13))),
}


def saved(tmp_path, kind):
    save, _, make = KINDS[kind]
    obj = make()
    path = tmp_path / f"{kind}.bin"
    save(obj, str(path))
    return obj, path


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_round_trip_is_bit_identical(tmp_path, kind):
    obj, path = saved(tmp_path, kind)
    back = KINDS[kind][1](str(path))
    assert_same_bits(back, obj)


def test_feature_round_trip_keeps_names_and_nan_warmup(tmp_path):
    matrix, path = saved(tmp_path, "features")
    back = indicators.load_cache(str(path))
    assert back.names == matrix.names
    assert np.isnan(back.values[: back.usable_from]).any()


def test_header_carries_kind_meta_and_array_specs(tmp_path):
    _, path = saved(tmp_path, "linear")
    data = path.read_bytes()
    magic, version, length = struct.unpack("<4sHI", data[:10])
    assert (magic, version) == (_binio.MAGIC, _binio.VERSION)
    header = json.loads(data[10:10 + length])
    assert header == {"kind": "linear", "meta": {"bias": -0.7},
                      "arrays": [["weights", "<f8", [3]]]}
    assert len(data) == 10 + length + 3 * 8


def test_float32_network_is_stored_as_f4_at_half_the_size(tmp_path):
    net, path = saved(tmp_path, "bilstm32")
    data = path.read_bytes()
    (length,) = struct.unpack("<I", data[6:10])
    header = json.loads(data[10:10 + length])
    assert {dtype for _, dtype, _ in header["arrays"]} == {"<f4"}
    params = net.param_dict().values()
    assert len(data) == 10 + length + 4 * sum(arr.size for arr in params)
    back = nets.load_network(str(path))
    assert back.dtype == np.float32
    nets.save_network(back, str(tmp_path / "again.bin"))
    assert (tmp_path / "again.bin").read_bytes() == data


@pytest.mark.parametrize("kind, loader", [
    ("linear", baselines.load_svr),
    ("svr", nets.load_network),
    ("bilstm", indicators.load_cache),
    ("features", baselines.load_linear),
])
def test_wrong_kind_rejected(tmp_path, kind, loader):
    _, path = saved(tmp_path, kind)
    with pytest.raises(DataError, match="expected"):
        loader(str(path))


def test_old_network_v2_file_rejected(tmp_path):
    path = tmp_path / "net.bin"
    header = b"WFNN" + struct.pack("<HBQQQd", 2, 1, 3, 2, 2, 0.2)
    path.write_bytes(header + np.zeros(300).tobytes())
    for loader in (nets.load_network, baselines.load_linear, baselines.load_svr):
        with pytest.raises(DataError, match="magic"):
            loader(str(path))


def test_old_feature_cache_v1_file_rejected(tmp_path):
    path = tmp_path / "features.wffm"
    path.write_bytes(b"WFFM" + struct.pack("<HQQ", 1, 2, 1) + np.zeros(8).tobytes())
    with pytest.raises(DataError, match="magic"):
        indicators.load_cache(str(path))


def test_other_container_version_rejected(tmp_path):
    _, path = saved(tmp_path, "linear")
    data = bytearray(path.read_bytes())
    data[4:6] = struct.pack("<H", _binio.VERSION + 1)
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="version"):
        baselines.load_linear(str(path))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("keep", [0, 7, 12, -1])
def test_truncated_file_rejected(tmp_path, kind, keep):
    # keep bytes: none, inside the fixed prefix, inside the JSON header,
    # and all but the last byte of the arrays
    _, path = saved(tmp_path, kind)
    data = path.read_bytes()
    path.write_bytes(data[:keep])
    with pytest.raises(DataError, match="truncated"):
        KINDS[kind][1](str(path))


def test_trailing_bytes_rejected(tmp_path):
    _, path = saved(tmp_path, "svr")
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(DataError, match="padded"):
        baselines.load_svr(str(path))


def write_container(path, header):
    raw = json.dumps(header).encode()
    path.write_bytes(struct.pack("<4sHI", _binio.MAGIC, _binio.VERSION, len(raw)) + raw
                     + b"\0" * 8)


@pytest.mark.parametrize("spec", [
    ["weights", "|O", [1]],     # object arrays would read raw pointers
    ["weights", "<f8", [-1]],
    ["weights", "<f8", [1.0]],
    ["weights", "<f2", [4]],    # dtypes no artifact is stored in
    ["weights", "<i4", [2]],
])
def test_bad_array_spec_rejected(tmp_path, spec):
    path = tmp_path / "bad.bin"
    write_container(path, {"kind": "linear", "meta": {"bias": 0.0}, "arrays": [spec]})
    with pytest.raises(DataError, match="bad dtype"):
        baselines.load_linear(str(path))


def test_unparseable_header_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<4sHI", _binio.MAGIC, _binio.VERSION, 5) + b"{nope")
    with pytest.raises(DataError, match="header"):
        baselines.load_linear(str(path))


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    write_container(path, {"kind": "linear", "meta": {},
                           "arrays": [["weights", "<f8", [1]]]})
    with pytest.raises(DataError, match="malformed linear"):
        baselines.load_linear(str(path))


def test_svr_status_read_from_header(tmp_path):
    model, path = saved(tmp_path, "svr")
    back = baselines.load_svr(str(path))
    assert ((back.converged, back.iterations, back.max_iter, back.tol)
            == (model.converged, model.iterations, model.max_iter, model.tol))


@pytest.mark.parametrize("key", ["tol", "max_iter"])
def test_svr_without_its_limits_rejected(tmp_path, key):
    # a checkpoint from before the fit recorded its limits is malformed
    _, path = saved(tmp_path, "svr")
    data = path.read_bytes()
    length = struct.unpack("<4sHI", data[:10])[2]
    header = json.loads(data[10:10 + length])
    del header["meta"][key]
    raw = json.dumps(header).encode()
    path.write_bytes(struct.pack("<4sHI", _binio.MAGIC, _binio.VERSION, len(raw)) + raw
                     + data[10 + length:])
    with pytest.raises(DataError, match="malformed svr artifact"):
        baselines.load_svr(str(path))


@pytest.mark.parametrize("damage", ["wrong_kind", "truncated_prefix", "truncated_header",
                                    "truncated_arrays", "padded", "missing_field"])
def test_header_reader_fails_as_load_does(tmp_path, damage):
    _, path = saved(tmp_path, "linear" if damage == "wrong_kind" else "svr")
    data = path.read_bytes()
    if damage == "truncated_prefix":
        path.write_bytes(data[:7])
    elif damage == "truncated_header":
        path.write_bytes(data[:12])
    elif damage == "truncated_arrays":
        path.write_bytes(data[:-1])
    elif damage == "padded":
        path.write_bytes(data + b"\0" * 8)
    elif damage == "missing_field":
        write_container(path, {"kind": "svr", "meta": {"converged": True},
                               "arrays": [["dual_coef", "<f8", [1]]]})
    with pytest.raises(DataError, match=re.escape(f"{path}: ")) as info:
        baselines.load_svr(str(path))
    if damage == "missing_field":
        assert "malformed svr artifact" in str(info.value)
