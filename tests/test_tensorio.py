import hashlib
import io
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtta import tensorio
from gtta.errors import DataError, FormatError, IoError, ParamError
from gtta.tensorio import (
    dumps_tensor,
    load_container,
    load_tensor,
    read_tensor,
    save_container,
    save_json,
    save_tensor,
)


def test_known_bytes_decode():
    # Layout is little-endian by definition, so the bytes are fixed.
    blob = (
        b"GTT1" + struct.pack("<BB", 0, 2) + struct.pack("<2Q", 2, 2)
        + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    )
    read = _exact_reader(blob)
    tensor = read_tensor(read)
    with pytest.raises(FormatError):  # no trailing bytes left
        read(1)
    assert tensor.shape == (2, 2)
    assert tensor.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_file_round_trip(tmp_path):
    path = tmp_path / "t.gtt"
    t = np.arange(12.0).reshape(3, 4)
    save_tensor(t, path)
    back = load_tensor(path)
    assert back.shape == t.shape
    assert np.array_equal(back, t)


def test_zeros_payload_size(tmp_path):
    path = tmp_path / "z.gtt"
    save_tensor(np.zeros(3), path)
    blob = path.read_bytes()
    # magic + dtype + rank + one u64 dim + 3 f64 zeros
    assert len(blob) == 4 + 2 + 8 + 3 * 8
    assert blob[-24:] == b"\x00" * 24


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    seed=st.integers(0, 2**31),
)
def test_round_trip_property(shape, seed):
    data = np.random.default_rng(seed).standard_normal(shape)
    blob = dumps_tensor(data)
    read = _exact_reader(blob)
    back = read_tensor(read)
    with pytest.raises(FormatError):  # no trailing bytes left
        read(1)
    assert back.shape == tuple(shape)
    assert np.array_equal(back, data)


def test_csv_parse(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    t = load_tensor(path)
    assert t.shape == (2, 2)
    assert t.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_csv_header_skip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1.0,2.0\n")
    assert load_tensor(path, header=True).tolist() == [[1.0, 2.0]]
    with pytest.raises(FormatError):
        load_tensor(path)


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError):
        load_tensor(path)


def csv_oracle(blob: bytes, header: bool) -> np.ndarray:
    """The CSV parser as it was before ``np.loadtxt`` parsed tables, one ``float()`` per token."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not a GTT file and not valid CSV text: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if header:
        lines = lines[1:]
    if not lines:
        raise FormatError("empty CSV file")
    rows = []
    width = None
    for i, ln in enumerate(lines):
        try:
            row = [float(tok) for tok in ln.split(",")]
        except ValueError as exc:
            raise FormatError(f"CSV line {i + 1}: {exc}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"CSV line {i + 1}: expected {width} columns, got {len(row)}")
        rows.append(row)
    arr = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError("CSV contains NaN or Inf")
    return arr


_PAD = st.sampled_from(["", " ", "\t", "  ", " \t "])
_BLANK_LINES = st.lists(st.sampled_from(["", " ", "\t", " \t  "]), max_size=2)

# The ways a table is refused, and the token each of the last four puts in.
_CORRUPTIONS = ("ragged", "empty field", "trailing comma", "header only", "blank lines only",
                "text", "nan", "inf", "overflow")
_BAD_TOKENS = {"text": "{}1.5x", "nan": "{}nan{}", "inf": "-Infinity{}", "overflow": "1e400"}


def _corrupt(rows, kind, i, j, pad):
    """Make the token ``rows`` of a table into one the parser refuses, the way ``kind`` names."""
    if kind == "ragged":
        rows.append(rows[i] + ["1"])
    elif kind == "empty field":  # a new column, empty (or all pad) in row i
        for k, row in enumerate(rows):
            row.insert(j, pad if k == i else "0")
    elif kind == "trailing comma":
        rows[i].append("")
    elif kind in ("header only", "blank lines only"):
        rows.clear()
    else:
        rows[i][j] = _BAD_TOKENS[kind].format(pad, pad)


@st.composite
def csv_tables(draw, corruption=None):
    """(CSV bytes, header) of a finite table written with ``repr`` or ``%.17g``.

    Tokens carry stray spaces and tabs, lines end in LF or CRLF, blank and
    whitespace-only lines fall anywhere, and a header line may come first.
    A ``corruption`` from ``_CORRUPTIONS`` makes it a table the parser refuses.
    """
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    write = draw(st.sampled_from([repr, lambda v: "%.17g" % v]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = [[draw(_PAD) + write(draw(finite)) + draw(_PAD) for _ in range(d)] for _ in range(n)]
    header = draw(st.booleans()) or corruption == "header only"
    if corruption is not None:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))
        _corrupt(rows, corruption, i, j, draw(_PAD))
    lines = [draw(st.sampled_from(["id,x", " a , b ", "1,2,3"]))] if header else []
    if corruption == "blank lines only":
        lines = []
    lines += [",".join(row) for row in rows]
    lines = [ln for line in lines for ln in draw(_BLANK_LINES) + [line]] + draw(_BLANK_LINES)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text.encode(), header


@settings(max_examples=300, deadline=2000)
@given(table=csv_tables())
def test_csv_parses_to_the_bytes_of_one_float_per_token(table):
    blob, header = table
    want = csv_oracle(blob, header)
    got = tensorio._parse_csv(blob, header=header)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _refusal(parse, blob, header):
    try:
        parse(blob, header=header)
    except (FormatError, DataError) as exc:
        return type(exc)
    return None


@settings(max_examples=200, deadline=2000)
@given(table=st.sampled_from(_CORRUPTIONS).flatmap(csv_tables),
       bad_utf8=st.one_of(st.none(), st.integers(0, 1 << 16)))
def test_csv_refuses_what_one_float_per_token_refused_with_its_error(table, bad_utf8):
    blob, header = table
    if bad_utf8 is not None:  # a byte that starts no UTF-8 sequence, anywhere
        at = bad_utf8 % (len(blob) + 1)
        blob = blob[:at] + b"\xff" + blob[at:]
    want = _refusal(csv_oracle, blob, header)
    assert want is not None
    assert _refusal(tensorio._parse_csv, blob, header) is want


@pytest.mark.parametrize("token", ["1_000", "2_5.0", "١٢", "３", "१.5"])
def test_csv_refuses_the_numbers_only_python_float_reads(token):
    # float() took digit separators and non-ASCII decimal digits; np.loadtxt does not.
    blob = f"{token},2\n".encode()
    assert csv_oracle(blob, header=False).shape == (1, 2)
    with pytest.raises(FormatError, match="not a numeric CSV table"):
        tensorio._parse_csv(blob, header=False)


def test_csv_takes_a_unit_separator_as_space():
    # np.loadtxt strips U+001F around a number, where float() refused it.
    blob = b"\x1f1,2\x1f\n"
    with pytest.raises(FormatError):
        csv_oracle(blob, header=False)
    assert tensorio._parse_csv(blob, header=False).tolist() == [[1.0, 2.0]]


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.gtt"
    path.write_bytes(dumps_tensor(np.ones((2, 3)))[:-8])
    with pytest.raises(FormatError, match="48 bytes wanted at byte 22, 40 left"):
        load_tensor(path)


@pytest.mark.parametrize("blob", ["tensor", "container"])
def test_every_short_file_says_what_it_wanted_and_had_left(tmp_path, blob):
    blob, load = {"tensor": (_TENSOR_BLOB, load_tensor),
                  "container": (_CONTAINER_BLOB, load_container)}[blob]
    path = tmp_path / "short.gtt"
    for cut in range(4, len(blob)):  # below 4 bytes a tensor file is sniffed as CSV
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError, match=r"truncated: \d+ bytes wanted at byte \d+, \d+ left"):
            load(path)


def test_shape_too_large_to_exist_is_format_error():
    # 255 dimensions of 2**63 name about 10**4800 bytes, a number too long for str().
    blob = b"GTT1" + struct.pack("<BB", 0, 255) + struct.pack("<255Q", *[1 << 63] * 255)
    with pytest.raises(FormatError, match="over 2\\*\\*64"):
        read_tensor(_exact_reader(blob))


def test_bad_magic():
    with pytest.raises(FormatError):
        read_tensor(_exact_reader(b"NOPE" + b"\x00" * 32))


def test_nan_payload_rejected():
    blob = (
        b"GTT1" + struct.pack("<BB", 0, 1) + struct.pack("<Q", 2)
        + struct.pack("<2d", 1.0, float("nan"))
    )
    with pytest.raises(DataError):
        read_tensor(_exact_reader(blob))


def test_save_rejects_bad_shapes(tmp_path):
    with pytest.raises(FormatError):
        save_tensor(np.empty((0, 3)), tmp_path / "x.gtt")
    with pytest.raises(FormatError):
        save_tensor(np.float64(1.0), tmp_path / "x.gtt")
    with pytest.raises(DataError):
        save_tensor(np.array([1.0, np.inf]), tmp_path / "x.gtt")


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.gtt"
    path.write_bytes(dumps_tensor(np.ones(2)) + b"xx")
    with pytest.raises(FormatError):
        load_tensor(path)


def test_container_round_trip(tmp_path):
    path = tmp_path / "c.gttc"
    sections = {"a": np.ones((2, 2)), "b": np.arange(3.0)}
    save_container(sections, path)
    back = load_container(path)
    assert list(back) == ["a", "b"]
    for name in sections:
        assert np.array_equal(back[name], sections[name])


def test_container_truncation(tmp_path):
    path = tmp_path / "c.gttc"
    save_container({"a": np.ones(4)}, path)
    broken = tmp_path / "broken.gttc"
    broken.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_container(broken)


class _FullDisk:
    """A file that takes a few bytes and then fails like a full disk."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:5])
        raise OSError(28, "No space left on device")


def _failing_replace(src, dst):
    raise OSError(13, "Permission denied")


@pytest.mark.parametrize("write", [
    lambda path: save_tensor(np.zeros(3), path),
    lambda path: save_container({"a": np.zeros(3)}, path),
    lambda path: save_json({"a": 0}, path),
])
@pytest.mark.parametrize("fault", ["write", "rename"])
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, write, fault):
    path = tmp_path / "artifact"
    path.write_bytes(b"earlier")
    if fault == "write":
        monkeypatch.setattr(tensorio, "open", _FullDisk, raising=False)
    else:
        monkeypatch.setattr(tensorio.os, "replace", _failing_replace)
    with pytest.raises(IoError):
        write(path)
    monkeypatch.undo()
    assert path.read_bytes() == b"earlier"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    write(path)
    assert path.read_bytes() != b"earlier"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_recording_notes_the_files_read_and_written(tmp_path):
    tensor, meta = tmp_path / "new" / "dir" / "t.gtt", tmp_path / "meta.json"
    with tensorio.recording() as record:
        save_tensor(np.ones(3), tensor)  # makes the missing directories
        save_json({"a": 1}, meta)
        load_tensor(tensor)
        assert tensorio.load_json(meta) == {"a": 1}
        with pytest.raises(IoError):
            load_tensor(tmp_path / "missing.gtt")
    assert list(record["outputs"]) == [str(tensor), str(meta)]
    assert list(record["inputs"]) == [str(tensor), str(meta)]
    load_tensor(tensor)  # nothing is noted outside a recording
    assert len(record["inputs"]) == 2


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_recording_digests_the_bytes_the_command_saw(tmp_path):
    read, written = tmp_path / "in.gtt", tmp_path / "out.json"
    save_tensor(np.arange(3.0), read)
    seen = read.read_bytes()
    with tensorio.recording() as record:
        load_tensor(read)
        read.write_bytes(b"changed after the read")
        save_json({"a": 1}, written)
        save_json({"a": 2}, written)  # the last write wins
        digests = {role: {p: tensorio.content_hash(p, d) for p, d in files.items()}
                   for role, files in record.items()}
    assert digests == {"inputs": {str(read): _sha256(seen)},
                       "outputs": {str(written): _sha256(written.read_bytes())}}
    assert tensorio.content_hash(read) == _sha256(b"changed after the read")  # none: from disk


def test_recording_ends_its_hashing_thread(tmp_path):
    before = threading.enumerate()
    with pytest.raises(ParamError):
        with tensorio.recording() as record:
            save_json({"a": 1}, tmp_path / "a.json")
            tensorio.load_json(tmp_path / "a.json")
            save_json({"a": 2}, tmp_path / "a.json")  # refused: it was read
    assert threading.enumerate() == before
    # the recording hashed what it had queued before the thread ended
    seen = record["inputs"][str(tmp_path / "a.json")]
    assert tensorio.content_hash(tmp_path / "a.json", seen) == _sha256(b'{\n  "a": 1\n}\n')


@pytest.mark.parametrize("blob", [b"{bad", b"[1]", b"\xff{}"])
def test_load_json_needs_an_object(tmp_path, blob):
    (tmp_path / "x.json").write_bytes(blob)
    with pytest.raises(FormatError):
        tensorio.load_json(tmp_path / "x.json")


def _exact_reader(blob):
    stream = io.BytesIO(blob)

    def read(n):
        data = stream.read(min(n, len(blob) + 1))
        if len(data) < n:
            raise FormatError("short read")
        return data

    return read


_TENSOR_BLOB = dumps_tensor(np.arange(6.0).reshape(2, 3))
_CONTAINER_BLOB = (
    b"GTTC" + struct.pack("<I", 2)
    + struct.pack("<H", 4) + b"mean" + dumps_tensor(np.ones(3))
    + struct.pack("<H", 2) + b"w0" + dumps_tensor(np.eye(2))
)


@settings(max_examples=400, deadline=None)
@given(
    container=st.booleans(),
    edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=4),
    cut=st.one_of(st.none(), st.integers(0, 1 << 16)),
)
def test_mutated_blobs_raise_only_format_or_data_errors(tmp_path_factory, container, edits, cut):
    blob = bytearray(_CONTAINER_BLOB if container else _TENSOR_BLOB)
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    if cut is not None:
        blob = blob[: cut % (len(blob) + 1)]
    path = tmp_path_factory.getbasetemp() / "fuzzed.gtt"
    path.write_bytes(bytes(blob))
    if container:
        readers = [lambda: load_container(path)]
    else:
        readers = [lambda: load_tensor(path), lambda: read_tensor(_exact_reader(bytes(blob)))]
    for read in readers:
        try:
            read()
        except (FormatError, DataError):
            pass


def test_read_tensor_takes_the_parts_in_order():
    sizes = []
    read = _exact_reader(_TENSOR_BLOB)
    tensor = read_tensor(lambda n: sizes.append(n) or read(n))
    assert sizes == [6, 16, 48]
    assert np.array_equal(tensor, np.arange(6.0).reshape(2, 3))


def _load_arrays(tmp_path, kind):
    """Write a small file of ``kind``, and a loader of the arrays it holds."""
    path = tmp_path / f"file.{kind}"
    if kind == "tensor":
        save_tensor(np.arange(6.0).reshape(2, 3), path)
        return path, lambda: [load_tensor(path)]
    if kind == "container":
        save_container({"a": np.ones((2, 2)), "b": np.arange(3.0)}, path)
        return path, lambda: list(load_container(path).values())
    path.write_text("1.0,2.0\n3.0,4.0\n")
    return path, lambda: [load_tensor(path)]


@pytest.mark.parametrize("kind", ["tensor", "container", "csv"])
def test_loaded_arrays_are_read_only_and_their_digest_is_the_files(tmp_path, kind):
    path, load = _load_arrays(tmp_path, kind)
    with tensorio.recording() as record:
        arrays = load()
        digest = tensorio.content_hash(path, record["inputs"][str(path)])
    assert digest == _sha256(path.read_bytes())
    for arr in arrays:
        assert arr.dtype == np.float64 and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1.0
        if kind != "csv":  # a view of the payload's bytes, not a copy
            assert not arr.flags.owndata


_HUGE_HEADER = b"GTT1" + struct.pack("<BB", 0, 1) + struct.pack("<Q", 1 << 40)


@pytest.mark.parametrize("load, blob", [
    (load_tensor, _HUGE_HEADER + b"\x00" * 64),
    (load_container, b"GTTC" + struct.pack("<IH", 1, 1) + b"a" + _HUGE_HEADER + b"\x00" * 64),
])
def test_a_payload_past_the_end_of_the_file_is_refused_before_it_is_allocated(
        tmp_path, load, blob):
    path = tmp_path / "huge.gtt"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"truncated: {8 << 40} bytes wanted"):
            load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _feed(fd, blob):
    os.write(fd, blob)
    os.close(fd)


def _through_a_pipe(blob, load):
    """``load`` of a path that reads ``blob`` from a pipe, and the digest recorded for it."""
    read_end, write_end = os.pipe()
    writer = threading.Thread(target=_feed, args=(write_end, blob))
    writer.start()
    path = f"/dev/fd/{read_end}"
    try:
        with tensorio.recording() as record:
            loaded = load(path)
            return loaded, tensorio.content_hash(path, record["inputs"][path])
    finally:
        writer.join(timeout=10)
        os.close(read_end)
        assert not writer.is_alive()


@pytest.mark.parametrize("blob", [_TENSOR_BLOB, b"1,2\n3,4\n"])
def test_a_pipe_is_read_whole_and_then_parsed_like_a_file(tmp_path, blob):
    # A pipe has no size to check a header against until it has been read.
    (tmp_path / "file").write_bytes(blob)
    loaded, digest = _through_a_pipe(blob, load_tensor)
    assert np.array_equal(loaded, load_tensor(tmp_path / "file")) and not loaded.flags.writeable
    assert digest == _sha256(blob)


def test_a_short_pipe_is_refused_as_truncated():
    with pytest.raises(FormatError, match="truncated: 48 bytes wanted at byte 22, 40 left"):
        _through_a_pipe(_TENSOR_BLOB[:-8], load_tensor)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_non_finite_value_is_refused_without_a_floating_point_error(tmp_path, bad):
    data = np.arange(6.0)
    data[3] = bad
    (tmp_path / "t.csv").write_text(",".join(map(str, data)) + "\n")
    blob = dumps_tensor(np.arange(6.0))[:-8 * 3] + struct.pack("<d", bad) + b"\x00" * 16
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(DataError, match="NaN or Inf"):
            tensorio.as_tensor(data)
        with pytest.raises(DataError, match="NaN or Inf"):
            read_tensor(_exact_reader(blob))
        with pytest.raises(DataError, match="NaN or Inf"):
            load_tensor(tmp_path / "t.csv")
