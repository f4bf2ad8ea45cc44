"""Wire-protocol unit tests: framing, array payloads, validation."""

import io
import json

import numpy as np
import pytest

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


def test_symbols_must_be_integers():
    assert protocol.decode_symbols(None) == {}
    assert protocol.decode_symbols({"N": 8, "M": "9"}) == {"N": 8, "M": 9}
    with pytest.raises(ProtocolError):
        protocol.decode_symbols({"N": "eight"})
    with pytest.raises(ProtocolError):
        protocol.decode_symbols([1, 2])


# --------------------------------------------------------------- framing
def test_send_recv_round_trip():
    buf = io.StringIO()
    protocol.send_message(buf, {"op": "ping", "id": 7})
    buf.seek(0)
    assert protocol.recv_message(buf) == {"op": "ping", "id": 7}
    assert protocol.recv_message(buf) is None, "EOF is a clean None"


def test_recv_rejects_non_json_and_non_objects():
    for line in ("not json\n", "[1,2,3]\n", '"str"\n'):
        with pytest.raises(ProtocolError):
            protocol.recv_message(io.StringIO(line))


def test_messages_are_single_lines():
    buf = io.StringIO()
    protocol.send_message(buf, {"text": "with\nnewline"})
    raw = buf.getvalue()
    assert raw.count("\n") == 1 and raw.endswith("\n")
    assert json.loads(raw) == {"text": "with\nnewline"}


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
