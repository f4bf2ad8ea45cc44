"""Wire-protocol unit tests: framing, array payloads, validation."""

import io
import json
import math
import os
import socket
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import protocol
from repro.serve.protocol import ProtocolError


# ---------------------------------------------------------------- arrays
@pytest.mark.parametrize("dtype", ["float64", "float32", "int32", "int64"])
def test_array_round_trip(dtype):
    arr = (np.arange(24).reshape(2, 3, 4) * 1.5).astype(dtype)
    out = protocol.decode_array(protocol.encode_array(arr))
    np.testing.assert_array_equal(out, arr)
    assert out.dtype == arr.dtype
    assert out.flags.writeable, "decoded arrays must be mutable"


def test_scalar_shape_round_trip():
    arr = np.array(3.5)
    out = protocol.decode_array(protocol.encode_array(arr))
    assert out.shape == ()
    assert out == 3.5


def test_noncontiguous_input_encoded_contiguously():
    arr = np.arange(16, dtype=np.float64).reshape(4, 4)[:, ::2]
    out = protocol.decode_array(protocol.encode_array(arr))
    np.testing.assert_array_equal(out, arr)


def test_short_buffer_rejected_not_truncated():
    payload = protocol.encode_array(np.zeros(8))
    payload["shape"] = [16]  # lies about its size
    with pytest.raises(ProtocolError) as exc:
        protocol.decode_array(payload)
    assert exc.value.code == "E202"
    assert "size mismatch" in str(exc.value)


def test_negative_dimension_rejected():
    payload = protocol.encode_array(np.zeros(8))
    payload["shape"] = [-8]
    with pytest.raises(ProtocolError):
        protocol.decode_array(payload)


def test_junk_array_payloads_rejected():
    for junk in (None, 42, [], {"dtype": "float64"},
                 {"dtype": "nope", "shape": [1], "data": ""}):
        with pytest.raises(ProtocolError):
            protocol.decode_array(junk)


def test_wrapping_shape_is_rejected_not_a_value_error():
    # 2**32 x 2**32 elements wrap an int64 product to 0, so an empty
    # buffer used to pass the size check and crash the reshape.
    for data in (b"", ""):
        with pytest.raises(ProtocolError):
            protocol.decode_array(
                {"dtype": "float64", "shape": [2**32, 2**32], "data": data})


def test_non_numeric_dtype_is_rejected_not_a_value_error():
    for data in (bytes(8), "AAAAAAAAAAA="):
        with pytest.raises(ProtocolError, match="unsupported array dtype"):
            protocol.decode_array({"dtype": "object", "shape": [1], "data": data})
    with pytest.raises(ProtocolError):
        protocol.encode_array(np.array([None, 1], dtype=object))


def test_encode_views_and_decode_never_aliases_the_sender():
    arr = np.arange(6, dtype=np.float64)
    payload = protocol.encode_array(arr)
    assert payload["data"].readonly
    assert np.shares_memory(np.frombuffer(payload["data"], np.uint8), arr), \
        "a contiguous array is sent without a copy"
    out = protocol.decode_array(payload)
    assert out.flags.writeable and not np.shares_memory(out, arr)
    received = dict(payload, data=memoryview(bytearray(payload["data"])))
    assert np.shares_memory(protocol.decode_array(received),
                            np.frombuffer(received["data"], np.uint8)), \
        "a received (writable) buffer is decoded in place"


def test_symbols_must_be_integers():
    assert protocol.decode_symbols(None) == {}
    assert protocol.decode_symbols({"N": 8, "M": "9"}) == {"N": 8, "M": 9}
    with pytest.raises(ProtocolError):
        protocol.decode_symbols({"N": "eight"})
    with pytest.raises(ProtocolError):
        protocol.decode_symbols([1, 2])


# --------------------------------------------------------------- framing
def test_send_recv_round_trip():
    buf = io.BytesIO()
    protocol.send_message(buf, {"op": "ping", "id": 7})
    buf.seek(0)
    assert protocol.recv_message(buf) == {"op": "ping", "id": 7}
    assert protocol.recv_message(buf) is None, "EOF is a clean None"


def test_recv_rejects_non_json_and_non_objects():
    for line in (b"not json\n", b"[1,2,3]\n", b'"str"\n'):
        with pytest.raises(ProtocolError):
            protocol.recv_message(io.BytesIO(line))


def test_messages_are_single_lines():
    buf = io.BytesIO()
    protocol.send_message(buf, {"text": "with\nnewline"})
    raw = buf.getvalue()
    assert raw.count(b"\n") == 1 and raw.endswith(b"\n")
    assert json.loads(raw) == {"text": "with\nnewline"}


def _frame(obj) -> bytes:
    buf = io.BytesIO()
    protocol.send_message(buf, obj)
    return buf.getvalue()


def test_frame_layout_is_header_line_then_sorted_array_bytes():
    a = np.arange(3, dtype=np.int32)
    b = np.array([[1.5], [2.5]])
    header, _, trailer = _frame(
        {"op": "execute", "arrays": protocol.encode_arrays({"b": b.T, "a": a})}
    ).partition(b"\n")
    assert json.loads(header) == {"op": "execute", "arrays": {
        "a": {"dtype": a.dtype.str, "shape": [3], "nbytes": 12},
        "b": {"dtype": b.dtype.str, "shape": [1, 2], "nbytes": 16},
    }}
    assert trailer == a.tobytes() + b.T.tobytes()


WIRE_DTYPES = ("bool", "int8", "int32", "int64", "uint16", "float32",
               "float64", "complex128")


@st.composite
def wire_arrays(draw):
    """1-4 arrays: every wire dtype, 0-d and zero-size shapes, and C,
    Fortran and strided layouts."""
    arrays = {}
    for i in range(draw(st.integers(1, 4))):
        dtype = np.dtype(draw(st.sampled_from(WIRE_DTYPES)))
        shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if dtype.kind == "b":
            arr = np.asarray(rng.random(shape) < 0.5)
        elif dtype.kind in "iu":
            info = np.iinfo(dtype)
            arr = np.asarray(rng.integers(info.min, info.max, size=shape,
                                          dtype=dtype, endpoint=True))
        else:
            arr = np.asarray(rng.standard_normal(shape)
                             + (1j * rng.standard_normal(shape)
                                if dtype.kind == "c" else 0)).astype(dtype)
        layout = draw(st.sampled_from(("C", "F", "strided")))
        if layout == "F":
            arr = np.asfortranarray(arr)
        elif layout == "strided" and arr.ndim:
            big = np.zeros(arr.shape[:-1] + (2 * arr.shape[-1] + 1,), dtype)
            big[..., 1::2] = arr
            arr = big[..., 1::2]
        arrays[f"a{i}"] = arr
    return arrays


def _through_socketpair(obj):
    left, right = socket.socketpair()
    with left, right, left.makefile("wb") as out, right.makefile("rb") as inp:
        protocol.send_message(out, obj)
        return protocol.recv_message(inp)


def _through_bytesio(obj):
    buf = io.BytesIO(_frame(obj))
    return protocol.recv_message(buf)


@pytest.mark.parametrize("transport", [_through_bytesio, _through_socketpair])
@settings(max_examples=60, deadline=None)
@given(arrays=wire_arrays())
def test_arrays_round_trip_bit_identical(transport, arrays):
    message = transport({"op": "execute", "id": 1,
                         "arrays": protocol.encode_arrays(arrays)})
    assert message["id"] == 1
    out = protocol.decode_arrays(message["arrays"])
    assert sorted(out) == sorted(arrays)
    for name, arr in arrays.items():
        got = out[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes(), name
        assert got.flags.writeable
        assert not np.shares_memory(got, arr)
        assert not any(np.shares_memory(got, other)
                       for key, other in out.items() if key != name)


class TrickleStream(io.RawIOBase):
    """A raw stream that hands out at most ``step`` bytes per read."""

    def __init__(self, data: bytes, step: int = 7):
        self.data = memoryview(data)
        self.step = step
        self.reads = 0

    def readable(self):
        return True

    def readinto(self, buf):
        n = min(len(buf), self.step, len(self.data))
        buf[:n] = self.data[:n]
        self.data = self.data[n:]
        self.reads += 1
        return n


@contextmanager
def worker_pipe(data: bytes, eof: bool = False):
    """``data`` waiting on a pipe whose writer stays open (or, with
    ``eof``, has closed), read the way the pool reads a worker: through
    a buffered reader under a 1 s deadline."""
    from repro.serve.pool import _DeadlinePipe

    r, w = os.pipe()
    try:
        os.write(w, data)
        if eof:
            os.close(w)
            w = None
        pipe = _DeadlinePipe(r, "worker-test")
        pipe.deadline = time.monotonic() + 1.0
        with io.BufferedReader(pipe) as reader:
            yield reader
    finally:
        os.close(r)
        if w is not None:
            os.close(w)


def test_recv_waits_for_the_whole_frame():
    frame = _frame({"op": "execute",
                    "arrays": protocol.encode_arrays({"A": np.arange(9.0),
                                                      "B": np.ones(2, np.int8)})})
    raw = TrickleStream(frame + b'{"op":"ping"}\n')
    stream = io.BufferedReader(raw)
    message = protocol.recv_message(stream)
    assert raw.reads >= len(frame) // 7, "the frame arrived 7 bytes at a time"
    out = protocol.decode_arrays(message["arrays"])
    np.testing.assert_array_equal(out["A"], np.arange(9.0))
    np.testing.assert_array_equal(out["B"], np.ones(2, np.int8))
    assert protocol.recv_message(stream) == {"op": "ping"}


def test_truncated_trailer_is_a_clean_frame_error():
    from repro.serve.pool import WorkerTimeout

    frame = _frame({"arrays": protocol.encode_arrays({"A": np.arange(8.0)})})
    with pytest.raises(protocol.FrameError, match="truncated"):
        protocol.recv_message(io.BytesIO(frame[:-5]))
    # On a live worker pipe the rest is just not here yet: the pool's
    # reader waits for it until the deadline; a closed pipe is EOF.
    with worker_pipe(frame[:-5]) as reader, pytest.raises(WorkerTimeout):
        protocol.recv_message(reader)
    with worker_pipe(frame[:-5], eof=True) as reader, pytest.raises(EOFError):
        protocol.recv_message(reader)


class HeaderOnlyStream(io.BytesIO):
    """A stream that fails any read past its header line."""

    def read(self, *args):
        raise AssertionError("read past the header line")

    readinto = read1 = readinto1 = read


def _spec_header(spec, v=protocol.PROTOCOL_VERSION) -> bytes:
    return json.dumps({"op": "execute", "v": v, "program": "0" * 64,
                       "arrays": {"A": spec}}).encode() + b"\n"


def test_oversized_declaration_rejected_before_reading_the_trailer(monkeypatch):
    huge = {"dtype": "float64", "shape": [protocol.MAX_MESSAGE_BYTES // 8],
            "nbytes": protocol.MAX_MESSAGE_BYTES}
    with pytest.raises(protocol.FrameError, match="limit"):
        protocol.recv_message(HeaderOnlyStream(_spec_header(huge)))
    # The pool's reader refuses it at once, not after waiting for bytes.
    with worker_pipe(_spec_header(huge)) as reader, \
            pytest.raises(protocol.FrameError, match="limit"):
        protocol.recv_message(reader)
    # The cap counts header + newline + trailer, exactly.
    spec = {"dtype": "float64", "shape": [8], "nbytes": 64}
    header = _spec_header(spec)
    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", len(header) + 64)
    message = protocol.recv_message(io.BytesIO(header + bytes(64)))
    assert protocol.decode_arrays(message["arrays"])["A"].shape == (8,)
    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", len(header) + 63)
    with pytest.raises(protocol.FrameError):
        protocol.recv_message(HeaderOnlyStream(header))
    with pytest.raises(ProtocolError, match="exceeds limit"):
        _frame({"op": "execute",
                "arrays": protocol.encode_arrays({"A": np.zeros(64)})})


def test_stalled_large_declaration_costs_only_what_arrived():
    """A header may declare a frame near the limit and then send nothing:
    the reader's buffer grows only as trailer bytes arrive."""
    import tracemalloc

    n = (protocol.MAX_MESSAGE_BYTES - 4096) // 8
    header = _spec_header({"dtype": "float64", "shape": [n], "nbytes": 8 * n})
    tracemalloc.start()
    try:
        with pytest.raises(protocol.FrameError, match="truncated"):
            protocol.recv_message(io.BytesIO(header + bytes(1000)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * protocol.READ_STEP


def test_isolated_call_frames_have_no_size_limit(monkeypatch):
    """The limit is for frames a tenant controls; the supervisor-only
    harness op carries the caller's own arrays, of any size."""
    from repro.serve import worker as worker_mod

    assert protocol.frame_limit("execute") == protocol.MAX_MESSAGE_BYTES
    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 4096)
    A = np.arange(1024.0)  # 8 KB
    response = protocol.ok_response(arrays=protocol.encode_arrays({"A": A}))
    out = io.BytesIO()
    worker_mod.send_response(out, {"op": "isolated_call"}, response)
    frame = out.getvalue()
    with pytest.raises(protocol.FrameError, match="limit"):
        protocol.recv_message(io.BytesIO(frame))
    stream = io.BytesIO(frame)
    message = protocol.recv_message(stream, protocol.frame_limit("isolated_call"))
    assert stream.read() == b"", "the whole frame was read"
    np.testing.assert_array_equal(protocol.decode_arrays(message["arrays"])["A"], A)
    out = io.BytesIO()
    worker_mod.send_response(out, {"op": "execute"}, response)
    assert b'"code":"E204"' in out.getvalue(), "served responses stay capped"


@pytest.mark.parametrize("spec", [
    {"dtype": "object", "shape": [1], "nbytes": 8},
    {"dtype": "<U4", "shape": [1], "nbytes": 16},
    {"dtype": "nope", "shape": [1], "nbytes": 8},
    {"dtype": "float64", "shape": [-8], "nbytes": -64},
    {"dtype": "float64", "shape": [2.5], "nbytes": 16},
    {"dtype": "float64", "shape": [True], "nbytes": 8},
    {"dtype": "float64", "shape": "8", "nbytes": 64},
    {"dtype": "float64", "shape": [8], "nbytes": 63},
    {"dtype": "float64", "shape": [8], "nbytes": "64"},
    {"dtype": "float64", "shape": [8]},
    {"dtype": "float64", "shape": [2**32, 2**32], "nbytes": 0},
    42,
])
def test_bad_specs_are_frame_errors_before_any_allocation(spec):
    with pytest.raises(protocol.FrameError) as exc:
        protocol.recv_message(HeaderOnlyStream(_spec_header(spec)))
    assert exc.value.code == "E202"
    # Uncapped (a worker reading its jobs) and on a pipe that never
    # sends a trailer, a bad spec is still refused at once.
    with worker_pipe(_spec_header(spec)) as reader, \
            pytest.raises(protocol.FrameError):
        protocol.recv_message(reader, math.inf)


def test_junk_header_is_recoverable_and_the_stream_goes_on():
    good = _frame({"op": "execute",
                   "arrays": protocol.encode_arrays({"A": np.arange(3.0)})})
    stream = io.BytesIO(b"not json\n" + good)
    with pytest.raises(ProtocolError) as exc:
        protocol.recv_message(stream)
    assert not isinstance(exc.value, protocol.FrameError)
    message = protocol.recv_message(stream)
    np.testing.assert_array_equal(
        protocol.decode_arrays(message["arrays"])["A"], np.arange(3.0))


def test_old_version_header_declares_no_trailer():
    """A v1 request carried its arrays as base64 inside the line: it is
    read whole (no trailer) and then refused by version."""
    v1 = _spec_header({"dtype": "float64", "shape": [1], "data": "AAAAAAAAAAA="}, v=1)
    stream = io.BytesIO(v1 + b'{"op":"ping"}\n')
    request = protocol.recv_message(stream)
    with pytest.raises(ProtocolError, match="version mismatch"):
        protocol.validate_request(request)
    assert protocol.recv_message(stream) == {"op": "ping"}


# ------------------------------------------------------------ validation
def _req(**kw):
    base = {"op": "execute", "sdfg": {"name": "x"}}
    base.update(kw)
    return base


def test_validate_accepts_minimal_requests():
    assert protocol.validate_request({"op": "ping"})["op"] == "ping"
    assert protocol.validate_request(_req())["op"] == "execute"
    assert protocol.validate_request(_req(sdfg=None, program="abc"))


@pytest.mark.parametrize("bad,fragment", [
    ({"op": "frobnicate"}, "unknown op"),
    ({"op": "execute"}, "needs 'sdfg'"),
    (_req(v=99), "version mismatch"),
    (_req(tenant=""), "invalid tenant"),
    (_req(tenant="x" * 200), "invalid tenant"),
    (_req(tenant=42), "invalid tenant"),
    (_req(sdfg="not-a-dict"), "serialized SDFG"),
    (_req(backend="fortran"), "unknown backend"),
    (_req(deadline=-1), "invalid deadline"),
    (_req(deadline="soon"), "invalid deadline"),
    (_req(deadline=float("nan")), "invalid deadline"),
    (_req(deadline=float("inf")), "invalid deadline"),
    (_req(deadline=float("-inf")), "invalid deadline"),
    (_req(sanitize="maybe"), "invalid sanitize"),
])
def test_validate_rejects_malformed_requests(bad, fragment):
    with pytest.raises(ProtocolError) as exc:
        protocol.validate_request(bad)
    assert exc.value.code == "E202"
    assert fragment in str(exc.value)


def test_nan_deadline_on_the_wire_is_rejected():
    # json.loads accepts bare NaN tokens, and NaN slips through naive
    # `<= 0` checks — a NaN deadline once leaked a pool worker per
    # request (select() rejects NaN timeouts after checkout).
    raw = json.loads('{"op": "execute", "sdfg": {}, "deadline": NaN}')
    with pytest.raises(ProtocolError) as exc:
        protocol.validate_request(raw)
    assert "invalid deadline" in str(exc.value)


def test_response_shapes():
    ok = protocol.ok_response(op="pong")
    assert ok["status"] == "ok" and ok["v"] == protocol.PROTOCOL_VERSION
    err = protocol.error_response("E201", "boom", attempts=2)
    assert err["status"] == "error" and err["code"] == "E201"
    rej = protocol.rejected_response("R807", "open", retry_after=1.25)
    assert rej["status"] == "rejected" and rej["retry_after"] == 1.25


# -------------------------------------------------- supervisor-only ops
def test_isolation_harness_op_is_not_a_client_op():
    """A tenant must never make a worker dlopen a path it chose: the
    harness op is rejected at the protocol gate..."""
    assert "isolated_call" not in protocol.OPS
    with pytest.raises(ProtocolError) as exc:
        protocol.validate_request({"op": "isolated_call", "lib": "/tmp/evil.so",
                                   "program": "main", "workdir": "/tmp"})
    assert exc.value.code == "E202"


def test_daemon_built_jobs_never_carry_a_library_path():
    """...and a valid request smuggling the harness fields reaches the
    pool without them: the daemon builds each job field by field."""
    from repro.serve.daemon import SDFGServer, ServeConfig

    server = SDFGServer(ServeConfig(workers=1, telemetry=False))
    submitted = []

    class RecordingPool:
        def submit(self, job):
            submitted.append(job)
            return protocol.ok_response()

    server.pool = RecordingPool()
    request = protocol.validate_request(
        _req(lib="/tmp/evil.so", workdir="/tmp", program="main")
    )
    assert server._serve_job(request)["status"] == "ok"
    (job,) = submitted
    assert job["op"] == "execute"
    assert "lib" not in job and "workdir" not in job


def _frame_with_arrays():
    arrays = {"A": np.arange(10.0), "B": np.arange(6, dtype=np.int32),
              "C": np.zeros((0, 3))}
    return {"op": "execute", "arrays": protocol.encode_arrays(arrays)}, arrays


def test_a_pipe_frame_is_one_gathering_write(monkeypatch):
    """A worker pipe (an unbuffered file) gets header and arrays in one
    ``os.writev``."""
    message, arrays = _frame_with_arrays()
    calls = []
    writev = os.writev
    monkeypatch.setattr(protocol.os, "writev",
                        lambda fd, bufs: calls.append(len(bufs)) or writev(fd, bufs))
    r, w = os.pipe()
    with os.fdopen(r, "rb") as reader, os.fdopen(w, "wb", buffering=0) as writer:
        protocol.send_message(writer, message)
        got = protocol.decode_arrays(protocol.recv_message(reader)["arrays"])
    assert calls == [4], "header and three arrays in one call"
    for name, arr in arrays.items():
        np.testing.assert_array_equal(got[name], arr)


def test_a_socket_takes_the_frame_in_sendmsg():
    message, arrays = _frame_with_arrays()
    left, right = socket.socketpair()
    with left, right, right.makefile("rb") as reader:
        protocol.send_message(left, message)
        got = protocol.decode_arrays(protocol.recv_message(reader)["arrays"])
    for name, arr in arrays.items():
        np.testing.assert_array_equal(got[name], arr)


def test_a_short_gathering_write_resumes_where_it_stopped():
    message, arrays = _frame_with_arrays()
    sink = bytearray()

    def five_bytes(views):
        taken = b"".join(bytes(v) for v in views)[:5]
        sink.extend(taken)
        return len(taken)

    protocol._write_all(five_bytes, protocol._frame_parts(message, math.inf))
    got = protocol.decode_arrays(protocol.recv_message(io.BytesIO(bytes(sink)))["arrays"])
    for name, arr in arrays.items():
        np.testing.assert_array_equal(got[name], arr)


def test_each_dtype_string_is_parsed_once():
    protocol._dtype_of_str.cache_clear()
    for _ in range(3):
        protocol._check_spec("<f8", [2, 3])
    info = protocol._dtype_of_str.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    with pytest.raises(ProtocolError, match="unsupported"):
        protocol._check_spec("<U4", [1])
    with pytest.raises(ProtocolError, match="shape"):
        protocol._check_spec("<f8", [2, True])
