"""Wire protocol of the compile-and-execute service.

A message is one *frame*: a single line of compact JSON (the header)
and, when the message carries arrays, their raw bytes right after the
newline (the trailer).  Every hop uses the same frame — client ⇄ daemon
over a Unix or TCP socket, supervisor ⇄ worker over pipes, and the
isolated cpp calls of :mod:`repro.runtime.isolation` — so arrays are
never text-encoded and never touch the filesystem::

    {"arrays":{"A":{"dtype":"<f8","nbytes":64,"shape":[8]}},...}\\n
    <the 64 bytes of A, C order><the next array's bytes>...

* The header's ``arrays`` maps each name to ``{dtype, shape, nbytes}``;
  the trailer is the arrays' C-order bytes concatenated in sorted-name
  order.  A message without arrays (ping, stats, metrics, compile,
  every error) is just its header line.
* In memory an encoded array is ``{dtype, shape, data}``, ``data`` being
  bytes-like: :func:`encode_array` gives a read-only view of the array
  (no copy) and a received frame gives slices of the one buffer its
  trailer was read into, so a daemon forwards arrays without ever
  building an ndarray.  Writers move each ``data`` into the trailer
  one buffer at a time, never concatenated.
* Receivers check before they allocate: the header line is capped at
  :data:`MAX_MESSAGE_BYTES`; then every spec must have a numeric dtype
  (kinds ``b i u f c``), non-negative integer dimensions and ``nbytes``
  equal to itemsize times the shape's product (Python ints, so it
  cannot wrap), and header + trailer must fit in the channel's limit.
  The trailer buffer then grows as its bytes arrive, so a peer that
  declares a large frame and stalls costs no more than it sent.  A
  header that is not JSON is an ``E202`` and the stream goes on: it
  declared no trailer.  A bad spec is a :class:`FrameError` — also
  ``E202``, but the stream must close, because a trailer of untrusted
  length cannot be skipped.
* The limit guards against untrusted peers, so it is
  :data:`MAX_MESSAGE_BYTES` on every served hop and none at all for
  the supervisor-only ``isolated_call`` (:func:`frame_limit`), whose
  arrays are the host process's own.
* A header whose ``v`` is not :data:`PROTOCOL_VERSION` declares no
  trailer, so a v1 request (its arrays text-encoded inside the line)
  reaches :func:`validate_request` whole and gets ``E202`` "protocol
  version mismatch" on a connection that stays usable.

Every fault surfaces as a structured payload carrying a stable
diagnostic code (see :mod:`repro.diagnostics`):

========= ============================================================
status     meaning
========= ============================================================
``ok``     the request was served; results attached
``error``  the request was admitted but failed (``E2xx``/``R805``/V-codes)
``rejected`` admission control refused it fast (``R806``–``R808``) —
           the 429 of this protocol; ``retry_after`` says when to come back
========= ============================================================
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, IO, List, Optional, Tuple

import numpy as np

from repro.diagnostics import DiagnosticError, Severity, make_diagnostic

#: Protocol schema version; servers reject mismatched clients with E202.
PROTOCOL_VERSION = 2

#: Upper bound on one message, header + trailer; oversized requests are
#: a denial-of-service vector, not a workload.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Operations a client may request.
OPS = ("ping", "stats", "metrics", "compile", "execute", "shutdown")

#: dtype kinds an array may have: bool, signed, unsigned, float, complex.
NUMERIC_KINDS = "biufc"

#: Most trailer bytes a reader allocates ahead of their arrival.
READ_STEP = 1 << 20


def frame_limit(op: Any) -> float:
    """Size limit for the frames of a job with this ``op`` and of its
    response: :data:`MAX_MESSAGE_BYTES`, except for ``isolated_call``.
    That op is supervisor-only (not in :data:`OPS`) and carries the
    caller's own arrays, which may be of any size."""
    return math.inf if op == "isolated_call" else MAX_MESSAGE_BYTES


class ProtocolError(DiagnosticError):
    """Malformed or oversized message (code ``E202``)."""

    def __init__(self, message: str, code: str = "E202"):
        super().__init__(make_diagnostic(code, message, Severity.ERROR))


class FrameError(ProtocolError):
    """A frame whose length cannot be trusted (``E202``): the stream is
    out of step, so the reader answers once and closes it."""


# ---------------------------------------------------------------- arrays
def _check_spec(dtype: Any, shape: Any) -> Tuple[np.dtype, Tuple[int, ...], int]:
    """Validate one array's dtype and shape; returns them with its byte
    count, computed in Python ints (a product of dimensions cannot wrap)."""
    try:
        dt = np.dtype(dtype)
    except (TypeError, ValueError) as err:
        raise ProtocolError(f"malformed array dtype {dtype!r}: {err}") from err
    if dt.kind not in NUMERIC_KINDS:
        raise ProtocolError(
            f"unsupported array dtype {dt} (numeric kinds {NUMERIC_KINDS!r} only)"
        )
    if not isinstance(shape, (list, tuple)) or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
    ):
        raise ProtocolError(
            f"array shape must list non-negative integers, got {shape!r}"
        )
    return dt, tuple(shape), dt.itemsize * math.prod(shape)


def encode_array(arr: np.ndarray) -> Dict[str, Any]:
    """``{dtype, shape, data}`` of one ndarray; ``data`` is a read-only
    view of its C-order bytes (a copy only if it is not C-contiguous)."""
    arr = np.asarray(arr)
    if arr.dtype.kind not in NUMERIC_KINDS:
        raise ProtocolError(f"cannot send an array of dtype {arr.dtype}")
    # NB: ascontiguousarray may promote 0-d to shape (1,); keep arr.shape.
    flat = np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
    return {
        # The byte-order-explicit form ("<f8"): the bytes are raw, and
        # it is ten times cheaper to produce than the name ("float64").
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": memoryview(flat).toreadonly(),
    }


def decode_array(obj: Any) -> np.ndarray:
    """Decode and *validate* one array payload.

    The byte count must match dtype x shape exactly — a short buffer
    must never materialize as an array that reads out of bounds.  The
    result views ``data`` when it is a writable, aligned buffer (a
    received trailer) and copies it otherwise, so a decoded array is
    always writable and never aliases the sender's array.
    """
    if not isinstance(obj, dict):
        raise ProtocolError(f"array payload must be an object, got {type(obj).__name__}")
    try:
        dtype, shape, expected = _check_spec(obj["dtype"], obj["shape"])
        data = memoryview(obj["data"])
    except KeyError as err:
        raise ProtocolError(f"malformed array payload: missing {err}") from err
    except TypeError as err:
        raise ProtocolError(f"array data must be bytes-like: {err}") from err
    if data.nbytes != expected:
        raise ProtocolError(
            f"array payload size mismatch: {data.nbytes} bytes for "
            f"dtype {dtype} shape {shape} (expected {expected})"
        )
    arr = np.frombuffer(data, dtype=dtype).reshape(shape)
    if arr.flags.writeable and arr.flags.aligned:
        return arr
    return arr.copy()


def encode_arrays(arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    return {name: encode_array(arr) for name, arr in arrays.items()}


def decode_arrays(obj: Any) -> Dict[str, np.ndarray]:
    if not isinstance(obj, dict):
        raise ProtocolError("'arrays' must be an object of name -> payload")
    return {str(name): decode_array(payload) for name, payload in obj.items()}


def decode_symbols(obj: Any) -> Dict[str, int]:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ProtocolError("'symbols' must be an object of name -> int")
    out = {}
    for name, value in obj.items():
        try:
            out[str(name)] = int(value)
        except (TypeError, ValueError) as err:
            raise ProtocolError(f"symbol {name!r} is not an integer: {value!r}") from err
    return out


# --------------------------------------------------------------- framing
def _frame_parts(obj: Dict[str, Any], limit: float) -> List[Any]:
    """The header line and the trailer's buffers of one message."""
    buffers = []
    arrays = obj.get("arrays")
    if arrays:
        if not isinstance(arrays, dict):
            raise ProtocolError("'arrays' must be an object of name -> payload")
        specs = {}
        for name in sorted(arrays):
            payload = arrays[name]
            try:
                data = memoryview(payload["data"]).cast("B")
                specs[name] = {"dtype": payload["dtype"], "shape": payload["shape"],
                               "nbytes": data.nbytes}
            except (KeyError, TypeError, IndexError) as err:
                raise ProtocolError(f"array {name!r} has no byte payload: {err}") from err
            buffers.append(data)
        obj = dict(obj, arrays=specs)
    header = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()
    size = len(header) + 1 + sum(b.nbytes for b in buffers)
    if size > limit:
        raise ProtocolError(f"message of {size} bytes exceeds limit of {limit}")
    if len(header) >= MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"header line of {len(header) + 1} bytes exceeds limit of "
            f"{MAX_MESSAGE_BYTES}"
        )
    return [header + b"\n", *buffers]


def send_message(stream: IO, obj: Dict[str, Any],
                 limit: Optional[float] = None) -> None:
    """Write one frame to a binary stream and flush; nothing is written
    if the message is malformed or over ``limit`` bytes (default
    :data:`MAX_MESSAGE_BYTES`; ``ProtocolError``)."""
    parts = _frame_parts(obj, MAX_MESSAGE_BYTES if limit is None else limit)
    for part in parts:
        view = memoryview(part)
        while view:  # a raw pipe may take part of a write
            view = view[stream.write(view):]
    stream.flush()


def _read_header(line: bytes, limit: Optional[float]
                 ) -> Tuple[Dict[str, Any], List[Tuple[str, int]]]:
    """Parse one header line and size its trailer: the header and the
    (name, nbytes) of each array it declares, in trailer order.  Junk
    JSON is a ``ProtocolError``; a spec the reader cannot trust (so the
    trailer's length is unknown) is a :class:`FrameError`."""
    if len(line) > MAX_MESSAGE_BYTES:
        raise FrameError(
            f"incoming header line exceeds limit of {MAX_MESSAGE_BYTES} bytes")
    if limit is None:
        limit = MAX_MESSAGE_BYTES
    try:
        header = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ProtocolError(f"message is not valid JSON: {err}") from err
    if not isinstance(header, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(header).__name__}"
        )
    arrays = header.get("arrays")
    if arrays is None or header.get("v", PROTOCOL_VERSION) != PROTOCOL_VERSION:
        return header, []
    if not isinstance(arrays, dict):
        raise FrameError("'arrays' must be an object of name -> spec")
    sizes = []
    total = len(line)
    for name in sorted(arrays):
        spec = arrays[name]
        try:
            if not isinstance(spec, dict):
                raise ProtocolError(f"spec is a {type(spec).__name__}, not an object")
            _, _, expected = _check_spec(spec.get("dtype"), spec.get("shape"))
            if type(spec.get("nbytes")) is not int or spec["nbytes"] != expected:
                raise ProtocolError(
                    f"nbytes {spec.get('nbytes')!r} is not {expected}, the size "
                    "of its dtype and shape"
                )
        except ProtocolError as err:
            raise FrameError(f"bad spec for array {name!r}: {err.diagnostic.message}") from err
        total += expected
        if total > limit:
            raise FrameError(
                f"message declares {total}+ bytes, over the limit of {limit}"
            )
        sizes.append((name, expected))
    return header, sizes


def recv_message(stream: IO[bytes],
                 limit: Optional[float] = None) -> Optional[Dict[str, Any]]:
    """Read one frame of at most ``limit`` bytes (default
    :data:`MAX_MESSAGE_BYTES`) from a binary stream; None on clean EOF.
    Raises ``ProtocolError`` on a junk header (the stream may go on) and
    :class:`FrameError` on a bad spec or a truncated trailer (it may not).
    The header is parsed once and the trailer is read straight into the
    one buffer its arrays' ``data`` slices view."""
    line = stream.readline(MAX_MESSAGE_BYTES + 1)
    if not line.strip():
        return None
    header, sizes = _read_header(line, limit)
    if not sizes:
        return header
    total = sum(n for _, n in sizes)
    trailer = bytearray(min(total, READ_STEP))
    filled = 0
    while filled < total:
        if filled == len(trailer):  # grow only as the bytes arrive
            trailer.extend(bytes(min(total - filled, READ_STEP)))
        with memoryview(trailer) as view:
            got = stream.readinto(view[filled:])
        if not got:
            raise FrameError(
                f"truncated frame: the stream ended {total - filled} bytes "
                "short of the declared arrays"
            )
        filled += got
    view = memoryview(trailer)
    offset = 0
    for name, nbytes in sizes:
        header["arrays"][name]["data"] = view[offset:offset + nbytes]
        offset += nbytes
    return header


# -------------------------------------------------------------- payloads
def ok_response(**fields: Any) -> Dict[str, Any]:
    payload = {"status": "ok", "v": PROTOCOL_VERSION}
    payload.update(fields)
    return payload


def error_response(code: str, message: str, **fields: Any) -> Dict[str, Any]:
    payload = {
        "status": "error",
        "v": PROTOCOL_VERSION,
        "code": code,
        "message": message,
    }
    payload.update(fields)
    return payload


def rejected_response(
    code: str, message: str, retry_after: Optional[float] = None, **fields: Any
) -> Dict[str, Any]:
    """Fast admission rejection — the service-level 429."""
    payload = {
        "status": "rejected",
        "v": PROTOCOL_VERSION,
        "code": code,
        "message": message,
    }
    if retry_after is not None:
        payload["retry_after"] = round(float(retry_after), 6)
    payload.update(fields)
    return payload


def validate_request(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Shape-check an incoming request; raises ``ProtocolError``."""
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    if obj.get("v", PROTOCOL_VERSION) != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: client v{obj.get('v')}, "
            f"server v{PROTOCOL_VERSION}"
        )
    tenant = obj.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 128:
        raise ProtocolError(f"invalid tenant {tenant!r}")
    if op in ("compile", "execute"):
        if obj.get("sdfg") is None and not obj.get("program"):
            raise ProtocolError(f"{op} request needs 'sdfg' and/or 'program'")
        if obj.get("sdfg") is not None and not isinstance(obj["sdfg"], dict):
            raise ProtocolError("'sdfg' must be a serialized SDFG object")
        backend = obj.get("backend", "python")
        if backend not in ("python", "cpp", "interpreter"):
            raise ProtocolError(f"unknown backend {backend!r}")
        deadline = obj.get("deadline")
        if deadline is not None:
            # NaN/Infinity must be rejected here: json.loads accepts
            # them, NaN compares False against everything (so a plain
            # `<= 0` check passes it), and a NaN timeout downstream
            # blows up select() after a worker was already checked out.
            try:
                value = float(deadline)
                if not math.isfinite(value) or value <= 0:
                    raise ValueError
            except (TypeError, ValueError):
                raise ProtocolError(f"invalid deadline {deadline!r}") from None
        sanitize = obj.get("sanitize")
        if sanitize not in (None, False, True, "raise", "collect"):
            raise ProtocolError(f"invalid sanitize mode {sanitize!r}")
    return obj
